package drampower

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"drampower/internal/core"
	"drampower/internal/datasheet"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/scaling"
	"drampower/internal/schemes"
	"drampower/internal/sensitivity"
)

// -update rewrites testdata/roadmap.golden.txt from the current code:
//
//	go test . -run TestRoadmapGolden -update
//
// The server goldens pin one device; this file pins every model result
// the analyses consume, at full float precision, for every device the
// repository ships: the sample, the testdata descriptions and each
// scaling roadmap node. A refactor of the power engine that claims
// bit-identical results must pass it unedited.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenOverlay calibrates the sample device so the golden also pins the
// scaled breakdown path (calibration ratios other than 1).
const goldenOverlay = "Calibration golden\nstandby = 60mW\nop.act.energy *= 1.3\n"

func TestRoadmapGolden(t *testing.T) {
	type device struct {
		name string
		d    *desc.Description
	}
	devs := []device{{"sample", desc.Sample1GbDDR3()}}
	files, err := filepath.Glob("testdata/*.dram")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		devs = append(devs, device{filepath.Base(f), parseTestdata(t, filepath.Base(f))})
	}
	nodes, err := scaling.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range nodes {
		devs = append(devs, device{"node " + d.Name, d})
	}
	ov, err := desc.ParseOverlayString(goldenOverlay)
	if err != nil {
		t.Fatal(err)
	}

	serial := engine.Options{Workers: 1}
	var buf bytes.Buffer
	for _, dev := range devs {
		dumpModel(t, &buf, dev.name, dev.d, nil)
		sweep, err := sensitivity.SweepCalibratedOpts(dev.d, nil, serial)
		if err != nil {
			t.Fatalf("%s: sweep: %v", dev.name, err)
		}
		dumpValue(&buf, dev.name+" sweep", reflect.ValueOf(sweep))
		sch, err := schemes.EvaluateOpts(dev.d, serial)
		if err != nil {
			t.Fatalf("%s: schemes: %v", dev.name, err)
		}
		dumpValue(&buf, dev.name+" schemes", reflect.ValueOf(sch))
	}
	sample := desc.Sample1GbDDR3()
	dumpModel(t, &buf, "sample calibrated", sample, ov)
	sweep, err := sensitivity.SweepCalibratedOpts(sample, ov, serial)
	if err != nil {
		t.Fatal(err)
	}
	dumpValue(&buf, "sample calibrated sweep", reflect.ValueOf(sweep))

	for _, std := range []datasheet.Standard{datasheet.DDR2, datasheet.DDR3} {
		cmp, err := datasheet.CompareOpts(std, serial)
		if err != nil {
			t.Fatal(err)
		}
		dumpValue(&buf, "datasheet "+std.String(), reflect.ValueOf(cmp))
	}
	trend, err := scaling.EnergyTrend(serial)
	if err != nil {
		t.Fatal(err)
	}
	dumpValue(&buf, "trend", reflect.ValueOf(trend))

	path := filepath.Join("testdata", "roadmap.golden.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("%s differs at line %d\ngot:  %s\nwant: %s", path, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", path, len(got), len(exp))
	}
}

// dumpModel writes one device's model-level results: the resolved
// parameters and IDD currents, the energy-per-bit metrics, the
// description's own pattern evaluation, and every charge and background
// item.
func dumpModel(t *testing.T, buf *bytes.Buffer, name string, d *desc.Description, ov *desc.Overlay) {
	t.Helper()
	m, err := core.BuildCalibrated(d.Clone(), ov)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	dumpValue(buf, name+" params", reflect.ValueOf(m.Params()))
	dumpValue(buf, name+" idd", reflect.ValueOf(m.IDD()))
	fmt.Fprintf(buf, "%s epb_idd4 = %.17g\n", name, float64(m.EnergyPerBitIDD4()))
	fmt.Fprintf(buf, "%s epb_idd7 = %.17g\n", name, float64(m.EnergyPerBitIDD7()))
	dumpValue(buf, name+" evaluate", reflect.ValueOf(m.Evaluate()))
	for _, op := range desc.AllOps {
		dumpValue(buf, name+" charges "+op.String(), reflect.ValueOf(m.Charges(op).Items))
	}
	dumpValue(buf, name+" background", reflect.ValueOf(m.Background()))
}

// dumpValue writes v as one "path = value" line per scalar: floats at
// %.17g (round-trip exact), named integers through their String method,
// maps in sorted key order.
func dumpValue(buf *bytes.Buffer, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(buf, "%s = nil\n", path)
			return
		}
		dumpValue(buf, path, v.Elem())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(buf, "%s = %.17g\n", path, v.Float())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpValue(buf, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dumpValue(buf, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(a, b int) bool { return fmt.Sprint(keys[a]) < fmt.Sprint(keys[b]) })
		for _, k := range keys {
			dumpValue(buf, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	default:
		fmt.Fprintf(buf, "%s = %v\n", path, v.Interface())
	}
}
