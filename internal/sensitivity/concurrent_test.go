package sensitivity

import (
	"reflect"
	"sync"
	"testing"

	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
)

// TestConcurrentVariantsMatchSerial runs two sweeps and two scheme
// comparisons, on an SDR and a DDR5 device, at once and at two workers
// each, so their variants take and return the pooled scratch storage and
// placers concurrently. Every result must equal its serial run. Under
// the race detector (make legality-race) this also checks that no two
// variants share scratch.
func TestConcurrentVariantsMatchSerial(t *testing.T) {
	var ds []*desc.Description
	for _, nm := range []float64{170, 18} {
		n, err := scaling.NodeFor(nm)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, n.Description())
	}
	serial := engine.Options{Workers: 1}
	wantSweeps := make([][]Result, len(ds))
	wantSchemes := make([][]schemes.Result, len(ds))
	for i, d := range ds {
		var err error
		if wantSweeps[i], err = SweepCalibratedOpts(d, nil, serial); err != nil {
			t.Fatal(err)
		}
		if wantSchemes[i], err = schemes.EvaluateOpts(d, serial); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 3; round++ {
		opts := engine.Options{Workers: 2}
		sweeps := make([][]Result, len(ds))
		comps := make([][]schemes.Result, len(ds))
		errs := make([]error, 2*len(ds))
		var wg sync.WaitGroup
		for i, d := range ds {
			wg.Add(2)
			go func() {
				defer wg.Done()
				sweeps[i], errs[2*i] = SweepCalibratedOpts(d, nil, opts)
			}()
			go func() {
				defer wg.Done()
				comps[i], errs[2*i+1] = schemes.EvaluateOpts(d, opts)
			}()
		}
		wg.Wait()
		for i, d := range ds {
			if err := errs[2*i]; err != nil {
				t.Fatalf("%s: sweep: %v", d.Name, err)
			}
			if err := errs[2*i+1]; err != nil {
				t.Fatalf("%s: schemes: %v", d.Name, err)
			}
			if !reflect.DeepEqual(sweeps[i], wantSweeps[i]) {
				t.Errorf("round %d, %s: the concurrent sweep differs from the serial one", round, d.Name)
			}
			if !reflect.DeepEqual(comps[i], wantSchemes[i]) {
				t.Errorf("round %d, %s: the concurrent scheme comparison differs from the serial one", round, d.Name)
			}
		}
	}
}
