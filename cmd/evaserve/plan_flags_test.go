package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"eva/internal/compile"
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

// TestPlanCacheFlag: -plan-cache-mb sizes the process-wide plan-cache budget
// (512 MiB when the flag is absent) and 0 turns the cache off — executions
// still succeed, every constant counted as a miss.
func TestPlanCacheFlag(t *testing.T) {
	_, old := compile.PlanCacheBudget()
	defer compile.SetPlanCacheBudget(old)

	for _, tc := range []struct {
		flags  []string
		budget int64
		cached bool
	}{
		{nil, 512 << 20, true},
		{[]string{"-plan-cache-mb", "64"}, 64 << 20, true},
		{[]string{"-plan-cache-mb", "0"}, 0, false},
	} {
		addr, shutdown := startNode(t, append([]string{"-demo"}, tc.flags...)...)
		runDemoBatch(t, addr)
		runDemoBatch(t, addr) // the program is cached by id: same plan, now warm
		pm := fetchPlanMetrics(t, addr)
		shutdown()
		if pm.BudgetBytes != tc.budget {
			t.Errorf("flags %v: budget %d bytes, want %d", tc.flags, pm.BudgetBytes, tc.budget)
		}
		if pm.Plans != 1 || pm.Misses == 0 {
			t.Errorf("flags %v: plans section %+v, want one plan with first-run misses", tc.flags, pm)
		}
		if cached := pm.Hits > 0 && pm.CachedBytes > 0 && pm.CachedPlaintexts > 0; cached != tc.cached {
			t.Errorf("flags %v: caching = %v (%+v), want %v", tc.flags, cached, pm, tc.cached)
		}
	}
}
