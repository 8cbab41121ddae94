package execute

import (
	"math"
	"testing"
	"time"

	"eva/internal/compile"
	"eva/internal/core"
)

// TestOnInstructionRecords checks the profiler hook: every scheduled term
// produces exactly one record, ciphertext results report a plausible post-op
// level/scale/footprint, operand footprints are read before release, and
// hoisted rotation members are flagged, and each record's ID names its term's
// instruction.
func TestOnInstructionRecords(t *testing.T) {
	p := buildRotationProgram(t, 8)
	res := compileForTest(t, p, compile.Options{})
	in := randomInputs(p, 13)

	maxLevel := len(res.Plan.BitSizes) - 1
	recs := map[*core.Term]InstrRecord{}
	_, out := runEncrypted(t, res, in, RunOptions{
		Scheduler: SchedulerSequential,
		OnInstruction: func(term *core.Term, rec InstrRecord) {
			if _, dup := recs[term]; dup {
				t.Errorf("term %s recorded twice", term)
			}
			if rec.ID < 0 || int(rec.ID) >= len(res.Instrs) || res.Instrs[rec.ID].Term != term {
				t.Errorf("term %s recorded with id %d, which is not its instruction", term, rec.ID)
			}
			recs[term] = rec
		},
	})
	total := len(res.Program.TopoSort())
	if len(recs) != total {
		t.Fatalf("recorded %d instructions, want %d", len(recs), total)
	}
	if out.Stats.HoistedBatches == 0 {
		t.Fatal("test program dispatched no hoisted batch; rotation fixture changed?")
	}
	hoisted := 0
	for term, rec := range recs {
		if rec.Wall < 0 {
			t.Errorf("%s: negative wall time %v", term, rec.Wall)
		}
		if rec.Operands != len(term.Parms()) {
			t.Errorf("%s: %d operands recorded, want %d", term, rec.Operands, len(term.Parms()))
		}
		if rec.Cipher {
			if rec.Level < 0 || rec.Level > maxLevel {
				t.Errorf("%s: level %d outside chain [0,%d]", term, rec.Level, maxLevel)
			}
			if !(rec.Scale > 0) {
				t.Errorf("%s: non-positive scale %v", term, rec.Scale)
			}
			if rec.OutBytes <= 0 {
				t.Errorf("%s: cipher result with %d bytes", term, rec.OutBytes)
			}
		} else if rec.Level != -1 {
			t.Errorf("%s: plain result reports level %d, want -1", term, rec.Level)
		}
		if len(term.Parms()) > 0 && rec.OperandBytes <= 0 {
			t.Errorf("%s: operand bytes %d, want > 0 (read after release?)", term, rec.OperandBytes)
		}
		if rec.Hoisted {
			hoisted++
			if !term.Op.IsRotation() {
				t.Errorf("%s: non-rotation flagged hoisted", term)
			}
		}
	}
	members := 0
	for _, set := range res.Hoists {
		members += len(set.Steps)
	}
	if hoisted != members {
		t.Errorf("%d records flagged hoisted, want the hoist sets' %d members", hoisted, members)
	}
}

// TestUnitRecordWalls checks the one rule for the records of a unit that runs
// as one backend call: a fused chain's members and a hoist batch's members
// split the unit's measured wall in proportion to their
// compile.Result.InstrUnits, so their walls sum to the unit's. A record's
// share is truncated to whole nanoseconds and the last member takes the
// rounding, so each member's wall is within one nanosecond per member of its
// exact share. The program sums x·c₀ + rot(x,1)·c₁ + rot(x,2)·c₂: one chain
// of five members whose leaves include a hoist set of two rotations.
func TestUnitRecordWalls(t *testing.T) {
	p := core.MustNewProgram("units", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	var sum *core.Term
	for k := 0; k < 3; k++ {
		leaf := x
		if k > 0 {
			leaf, _ = p.NewRotation(core.OpRotateLeft, x, k)
		}
		c, _ := p.NewScalarConstant(0.5-0.25*float64(k), 30)
		prod, _ := p.NewBinary(core.OpMultiply, leaf, c)
		if sum == nil {
			sum = prod
		} else {
			sum, _ = p.NewBinary(core.OpAdd, sum, prod)
		}
	}
	if err := p.AddOutput("out", sum, 30); err != nil {
		t.Fatal(err)
	}
	res := compileForTest(t, p, compile.Options{})
	var units [][]int32
	for _, in := range res.Instrs {
		if in.Chain != nil {
			units = append(units, in.Chain.Members)
		}
	}
	for _, set := range res.Hoists {
		units = append(units, set.Members)
	}
	if len(units) != 2 {
		t.Fatalf("%d fused chains and hoist sets, want one of each", len(units))
	}

	walls := map[int32]time.Duration{}
	var recorded time.Duration
	_, out := runEncrypted(t, res, randomInputs(p, 3), RunOptions{
		Scheduler: SchedulerSequential,
		OnInstruction: func(_ *core.Term, rec InstrRecord) {
			walls[rec.ID] = rec.Wall
			recorded += rec.Wall
		},
	})
	if out.Stats.FusedChains != 1 || out.Stats.HoistedBatches != 1 {
		t.Fatalf("run fused %d chains and hoisted %d batches, want 1 and 1", out.Stats.FusedChains, out.Stats.HoistedBatches)
	}
	if recorded > out.Stats.WallTime {
		t.Errorf("records sum to %v, more than the run's %v", recorded, out.Stats.WallTime)
	}
	for _, members := range units {
		var wall time.Duration
		total := 0.0
		for _, m := range members {
			wall += walls[m]
			total += res.InstrUnits(m)
		}
		if wall <= 0 {
			t.Errorf("unit %v: members' walls sum to %v", members, wall)
		}
		for _, m := range members {
			share := float64(wall) * res.InstrUnits(m) / total
			if math.Abs(float64(walls[m])-share) > float64(len(members)) {
				t.Errorf("member %s of unit %v: wall %v, its InstrUnits share of %v is %.0fns", res.Instrs[m].Term, members, walls[m], wall, share)
			}
		}
	}
}
