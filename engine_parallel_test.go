package drampower

// Determinism and cache-coherence tests for the shared evaluation engine:
// the analyses on a worker pool must reproduce their Workers: 1 results
// exactly for any worker count, and the charge ledgers cached at Build time must equal
// a from-scratch recomputation on every device we ship. Run with -race to
// exercise the worker pool under the race detector.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"drampower/internal/desc"
)

// formatSweep renders sweep results exhaustively so a byte-wise comparison
// catches any ordering or numeric difference.
func formatSweep(rs []SensitivityResult) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s|%.17g|%.17g|%.17g\n",
			r.Name, r.DeltaUpPct, r.DeltaDownPct, r.RangePct)
	}
	return s
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	d := Sample1GbDDR3()
	serial, err := Sweep(d, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Sweep(d, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := formatSweep(parallel), formatSweep(serial); got != want {
			t.Errorf("workers=%d: parallel sweep differs from serial:\n got:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
}

func TestEvaluateSchemesParallelMatchesSerial(t *testing.T) {
	d := Sample1GbDDR3()
	serial, err := EvaluateSchemes(d, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EvaluateSchemes(d, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Errorf("parallel schemes differ from serial:\n got: %s\nwant: %s", got, want)
	}
}

func TestCompareDatasheetParallelMatchesSerial(t *testing.T) {
	serial, err := CompareDatasheetDDR3(BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CompareDatasheetDDR3(BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Errorf("parallel datasheet comparison differs from serial:\n got: %s\nwant: %s", got, want)
	}
}

func TestGenerationTrendMatchesSerial(t *testing.T) {
	serial, err := GenerationTrend(BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(Roadmap()) {
		t.Fatalf("trend points: got %d, want %d", len(serial), len(Roadmap()))
	}
	parallel, err := GenerationTrend(BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", parallel), fmt.Sprintf("%+v", serial); got != want {
		t.Errorf("parallel trend differs from serial:\n got: %s\nwant: %s", got, want)
	}
}

func TestEvalBatch(t *testing.T) {
	ds := []*Description{Sample1GbDDR3(), Sample1GbDDR3(), Sample1GbDDR3()}
	results, err := EvalBatch(ds, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ds) {
		t.Fatalf("results: got %d, want %d", len(results), len(ds))
	}
	for i, r := range results {
		if r == nil || r.Power <= 0 {
			t.Errorf("result %d: got %+v, want positive power", i, r)
		}
		if i > 0 && r.Power != results[0].Power {
			t.Errorf("result %d: power %v differs from result 0 (%v)", i, r.Power, results[0].Power)
		}
	}
}

func TestEvalBatchPartialResults(t *testing.T) {
	bad := Sample1GbDDR3()
	bad.Floorplan.BitsPerBitline = 0 // fails validation in Build
	ds := []*Description{Sample1GbDDR3(), bad, Sample1GbDDR3()}
	results, err := EvalBatch(ds, BatchOptions{Workers: 4})
	if err == nil {
		t.Fatal("expected an error for the invalid description")
	}
	if len(results) != len(ds) {
		t.Fatalf("partial results: got %d entries, want %d", len(results), len(ds))
	}
	if results[1] != nil {
		t.Errorf("failed job's result: got %+v, want nil", results[1])
	}
	if results[0] == nil || results[2] == nil {
		t.Errorf("healthy jobs must still evaluate: got [%v, _, %v]", results[0], results[2])
	}
}

// TestChargesLedgerMatchesRecompute verifies the tentpole cache contract on
// every shipped device: for all six operations the ledger cached at Build
// time is item-for-item identical to a from-scratch recomputation, repeated
// Charges calls return the same shared ledger, and the cached per-op
// energy matches the ledger's.
func TestChargesLedgerMatchesRecompute(t *testing.T) {
	files, err := filepath.Glob("testdata/*.dram")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("testdata devices: got %d, want 4", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			d, err := ParseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Build(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range desc.AllOps {
				cached := m.Charges(op)
				if again := m.Charges(op); again != cached {
					t.Errorf("%v: repeated Charges returned a different ledger", op)
				}
				fresh := m.RecomputeCharges(op)
				if fresh == cached {
					t.Errorf("%v: RecomputeCharges returned the cached ledger", op)
				}
				if len(fresh.Items) != len(cached.Items) {
					t.Fatalf("%v: item count %d (cached) vs %d (recomputed)",
						op, len(cached.Items), len(fresh.Items))
				}
				for i := range fresh.Items {
					if cached.Items[i] != fresh.Items[i] {
						t.Errorf("%v item %d: cached %+v != recomputed %+v",
							op, i, cached.Items[i], fresh.Items[i])
					}
				}
				if got, want := m.OpEnergy(op), cached.EnergyFromVdd(d.Electrical); got != want {
					t.Errorf("%v: OpEnergy %v != ledger energy %v", op, got, want)
				}
			}
			bg := m.Background()
			fresh := m.RecomputeBackground()
			if bg.Power != fresh.Power {
				t.Errorf("background power: cached %v != recomputed %v", bg.Power, fresh.Power)
			}
		})
	}
}

func TestParseErrorSurfacesThroughPublicAPI(t *testing.T) {
	_, err := ParseString("Technology\nFluxCapacitance 1fF\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *desc.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *desc.ParseError", err)
	}
	if pe.Line != 2 || pe.Col != 1 {
		t.Errorf("position: got line %d col %d, want line 2 col 1", pe.Line, pe.Col)
	}
}
