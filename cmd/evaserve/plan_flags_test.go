package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"eva/internal/serve"
)

func fetchPlanMetrics(t *testing.T, addr string) serve.PlanMetrics {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep serve.MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep.Plans
}

// TestPlanCacheFlag: evaserve leaves the process-wide plan-cache budget at
// its 512 MiB default, and a program run twice is served warm from its
// cached constants.
func TestPlanCacheFlag(t *testing.T) {
	addr, shutdown := startNode(t, "-demo")
	runDemoBatch(t, addr)
	runDemoBatch(t, addr) // the program is cached by id: same plan, now warm
	pm := fetchPlanMetrics(t, addr)
	shutdown()
	if pm.BudgetBytes != 512<<20 {
		t.Errorf("budget %d bytes, want %d", pm.BudgetBytes, 512<<20)
	}
	if pm.Plans != 1 || pm.Misses == 0 {
		t.Errorf("plans section %+v, want one plan with first-run misses", pm)
	}
	if pm.Hits == 0 || pm.CachedBytes == 0 || pm.CachedPlaintexts == 0 {
		t.Errorf("plans section %+v, want the warm run served from the cache", pm)
	}
}
