package profile

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"eva/internal/store"
)

// Store kinds and ids used by the profiler. Profiles are keyed by the
// content-addressed program id (so repeated runs of one program accumulate);
// the fitted calibration is a singleton.
const (
	KindProfile     = "profile"
	KindCalibration = "calibration"
	CalibrationID   = "default"
)

// Calibration is a fitted coefficient set mapping the analysis.CostModel's
// abstract "limb-element operation" units to measured nanoseconds, per
// opcode. It is what `evaserve -calibrate` emits and what the server loads at
// startup so admission estimates and drift checks run on measured numbers.
type Calibration struct {
	// NsPerUnit maps each opcode to its fitted nanoseconds per cost unit.
	NsPerUnit map[string]float64 `json:"ns_per_unit"`
	// BaselineNsPerUnit is the single global ratio (total ns over total
	// units) — the best possible one-coefficient scaling of the uncalibrated
	// model, used for opcodes with no per-op fit.
	BaselineNsPerUnit float64 `json:"baseline_ns_per_unit"`
	// Samples and Programs describe the fit's input population.
	Samples  uint64 `json:"samples"`
	Programs int    `json:"programs,omitempty"`
	FittedAt string `json:"fitted_at,omitempty"`
}

// PredictNs returns the calibrated wall-time prediction in nanoseconds for an
// instruction costing the given model units.
func (cal *Calibration) PredictNs(op string, units float64) float64 {
	if cal == nil || units <= 0 {
		return 0
	}
	if c, ok := cal.NsPerUnit[op]; ok && c > 0 {
		return c * units
	}
	return cal.BaselineNsPerUnit * units
}

// ErrNoSamples reports a calibration fit over profiles with no eligible
// (cipher, non-hoisted, non-fused) compute samples.
var ErrNoSamples = errors.New("profile: no eligible samples to fit")

// MinOpSamples is the fewest priced samples an opcode needs for a coefficient
// of its own. Below it, one preempted instruction would move the opcode's
// raw-sum rate several-fold, so the opcode takes BaselineNsPerUnit instead.
const MinOpSamples = 16

// Fit computes per-opcode cost coefficients from accumulated profiles as the
// ratio of summed measured nanoseconds to summed predicted units — the
// least-squares slope through the origin under per-sample unit weighting.
// Fused buckets are excluded (see BucketKey.priced), as are
// buckets with no model units (leaves and plain results, which the model
// prices at zero). An opcode with fewer than MinOpSamples priced samples gets
// no coefficient and is predicted at BaselineNsPerUnit, the ratio over every
// priced sample.
func Fit(profiles []ProgramProfile) (*Calibration, error) {
	type sums struct {
		ns, units float64
		count     uint64
	}
	perOp := map[string]*sums{}
	var totalNs, totalUnits float64
	var samples uint64
	for i := range profiles {
		for j := range profiles[i].Buckets {
			b := &profiles[i].Buckets[j]
			if !b.key().priced() || b.Units <= 0 || b.Count == 0 {
				continue
			}
			s := perOp[b.Op]
			if s == nil {
				s = &sums{}
				perOp[b.Op] = s
			}
			s.ns += b.TotalNS
			s.units += b.Units
			s.count += b.Count
			totalNs += b.TotalNS
			totalUnits += b.Units
			samples += b.Count
		}
	}
	if totalUnits <= 0 || samples == 0 {
		return nil, ErrNoSamples
	}
	cal := &Calibration{
		NsPerUnit:         make(map[string]float64, len(perOp)),
		BaselineNsPerUnit: totalNs / totalUnits,
		Samples:           samples,
		Programs:          len(profiles),
		FittedAt:          time.Now().UTC().Format(time.RFC3339),
	}
	for op, s := range perOp {
		if s.units > 0 && s.count >= MinOpSamples {
			cal.NsPerUnit[op] = s.ns / s.units
		}
	}
	return cal, nil
}

// LoadProfiles reads every accumulated program profile from the store,
// skipping records that fail to decode.
func LoadProfiles(st store.Store) ([]ProgramProfile, error) {
	ids, err := st.List(KindProfile)
	if err != nil {
		return nil, fmt.Errorf("profile: listing profiles: %w", err)
	}
	sort.Strings(ids)
	out := make([]ProgramProfile, 0, len(ids))
	for _, id := range ids {
		data, err := st.Get(KindProfile, id)
		if err != nil {
			continue
		}
		var p ProgramProfile
		if err := decodeJSON(data, &p); err != nil {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadCalibration reads the fitted coefficient set, returning (nil, nil) when
// none has been saved yet.
func LoadCalibration(st store.Store) (*Calibration, error) {
	data, err := st.Get(KindCalibration, CalibrationID)
	if errors.Is(err, store.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("profile: loading calibration: %w", err)
	}
	var cal Calibration
	if err := decodeJSON(data, &cal); err != nil {
		return nil, fmt.Errorf("profile: decoding calibration: %w", err)
	}
	return &cal, nil
}

// SaveCalibration persists the fitted coefficient set under the singleton id.
func SaveCalibration(st store.Store, cal *Calibration) error {
	data, err := encodeJSON(cal)
	if err != nil {
		return fmt.Errorf("profile: encoding calibration: %w", err)
	}
	if err := st.Put(KindCalibration, CalibrationID, data); err != nil {
		return fmt.Errorf("profile: saving calibration: %w", err)
	}
	return nil
}
