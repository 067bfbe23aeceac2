// Package schemes implements the comparison of proposed DRAM power
// reduction schemes of Section V of the paper. Each scheme is a transform
// of a baseline device description; the evaluation reports the energy per
// bit in the interleaved (IDD7-style) pattern together with the die-area
// impact — the two axes the paper insists must be judged together ("the
// detailed description ... allows also quantifying the die size impact").
//
// Each scheme variant is built by core.Variant: in pooled scratch storage
// that the next variant reuses, so a variant allocates nothing, and with
// the IDD loops placed once for the device, since no scheme changes its
// timing or bank count.
package schemes

import (
	"fmt"
	"math"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/units"
)

// Scheme is one power-reduction proposal.
type Scheme struct {
	// Name and Source identify the proposal like Section V does.
	Name   string
	Source string
	// Notes summarizes the paper's feasibility judgement.
	Notes string
	// Apply transforms a copy of the baseline description.
	Apply func(d *desc.Description)
}

// lwdSegmentation is the wordline segmentation factor of the selective
// bitline activation scheme: the row is split into 16 independently
// activatable segments (Udipi et al. activate only the segment holding
// the target cache line).
const lwdSegmentation = 16

// All returns the evaluated schemes in presentation order. The baseline is
// implicit (see Evaluate).
func All() []Scheme {
	return []Scheme{
		{
			Name:   "selective bitline activation",
			Source: "Udipi et al., ISCA 2010",
			Notes: "activates 1/16 of the row once the column address is " +
				"known; needs 16x finer wordline segmentation, growing the " +
				"local wordline driver stripe count and the bank width",
			Apply: func(d *desc.Description) {
				fp := &d.Floorplan
				fp.ActivationFraction = 1.0 / lwdSegmentation
				oldLWL := fp.BitsPerLocalWordline
				fp.BitsPerLocalWordline = maxInt(16, oldLWL/lwdSegmentation)
				resizeBankWidth(d)
			},
		},
		{
			Name:   "single sub-array access",
			Source: "Udipi et al., ISCA 2010",
			Notes: "fetches the full cache line from one sub-array: only one " +
				"local wordline rises, but the sense-amplifier stripe needs " +
				"a much wider local data path (area grows; the paper judges " +
				"this infeasible without re-architecting the array block)",
			Apply: func(d *desc.Description) {
				fp := &d.Floorplan
				// One local wordline out of the row's sub-arrays.
				fp.ActivationFraction = activationForOneSubarray(d)
				// Wider local data path: 4x the bits per column select and
				// a half wider sense-amplifier stripe.
				d.Technology.BitsPerCSL *= 4
				fp.BLSAStripeWidth = units.Length(float64(fp.BLSAStripeWidth) * 2.5)
				resizeBankHeight(d)
			},
		},
		{
			Name:   "segmented data lines",
			Source: "Jeong et al., ISSCC 2009 (LPDDR2 on-the-fly power cut)",
			Notes: "cut-off switches in the main data lines drive on average " +
				"55% of the bus length; off-pitch center-stripe change, " +
				"negligible area",
			Apply: func(d *desc.Description) {
				for i := range d.Signals {
					s := &d.Signals[i]
					if s.Kind == desc.SigDataRead || s.Kind == desc.SigDataWrite ||
						s.Kind == desc.SigDataShared {
						s.ActiveFrac = 0.55
					}
				}
			},
		},
		{
			Name:   "reduced page (8:1 CSL ratio)",
			Source: "this paper, Section V",
			Notes: "re-architected column path: dense metal-3 tracks become " +
				"master data lines, an 8x smaller page (512B for a 64B line) " +
				"is activated; compatible with the bitline stripe pitch",
			Apply: func(d *desc.Description) {
				d.Floorplan.ActivationFraction = 1.0 / 8
				// Eight times more bits move per column select pulse.
				d.Technology.BitsPerCSL *= 8
				// Slightly denser sense-amplifier stripe wiring.
				d.Floorplan.BLSAStripeWidth =
					units.Length(float64(d.Floorplan.BLSAStripeWidth) * 1.05)
				resizeBankHeight(d)
			},
		},
		{
			Name:   "half datapath width (mini-rank style)",
			Source: "Zheng et al., MICRO 2008",
			Notes: "per-device view of a narrower rank: half the DQ width at " +
				"the same per-pin rate halves the bits per burst; the row " +
				"energy amortizes over fewer bits, so the per-device energy " +
				"per bit rises — the system win comes from activating fewer " +
				"devices per access",
			Apply: func(d *desc.Description) {
				d.Spec.IOWidth /= 2
				d.Spec.ColAddrBits++ // same density, deeper columns
			},
		},
	}
}

// activationForOneSubarray returns the activation fraction that raises a
// single local wordline.
func activationForOneSubarray(d *desc.Description) float64 {
	// Sub-arrays across the bank: page cells / cells per local wordline.
	page := d.Spec.PageBits()
	if d.Floorplan.BitsPerLocalWordline <= 0 || page <= 0 {
		return 1
	}
	subs := float64(page) / float64(d.Floorplan.BitsPerLocalWordline)
	if subs < 1 {
		return 1
	}
	return 1 / subs
}

// resizeBankWidth recomputes the bank (array block) width after the local
// wordline segmentation changed: more LWD stripes widen the bank and the
// die.
func resizeBankWidth(d *desc.Description) {
	fp := &d.Floorplan
	name := arrayBlockName(fp)
	if name == "" {
		return
	}
	page := d.Spec.PageBits()
	subsWL := (page + fp.BitsPerLocalWordline - 1) / fp.BitsPerLocalWordline
	w := units.Length(float64(page)*float64(fp.BitlinePitch) +
		float64(subsWL+1)*float64(fp.LWDStripeWidth) + 1e-9)
	fp.BlockWidth[name] = w
}

// resizeBankHeight recomputes the bank height after the BLSA stripe width
// changed.
func resizeBankHeight(d *desc.Description) {
	fp := &d.Floorplan
	name := arrayBlockName(fp)
	if name == "" {
		return
	}
	rows := rowsPerBank(d)
	subsBL := (rows + fp.BitsPerBitline - 1) / fp.BitsPerBitline
	h := units.Length(float64(rows)*float64(fp.WordlinePitch) +
		float64(subsBL+1)*float64(fp.BLSAStripeWidth) + 1e-9)
	fp.BlockHeight[name] = h
}

func rowsPerBank(d *desc.Description) int {
	return 1 << uint(d.Spec.RowAddrBits)
}

func arrayBlockName(fp *desc.Floorplan) string {
	for _, n := range fp.HorizontalBlocks {
		if desc.IsArrayBlock(n) {
			return n
		}
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Result is the evaluation of one scheme against the baseline.
type Result struct {
	Name   string
	Source string
	Notes  string
	// EnergyPerBit in the interleaved pattern.
	EnergyPerBit units.Energy
	// EnergyDeltaPct is the energy-per-bit change vs. baseline (negative
	// = saving).
	EnergyDeltaPct float64
	// DieAreaMM2 and AreaDeltaPct quantify the cost side.
	DieAreaMM2   float64
	AreaDeltaPct float64
	// IDD7 of the variant, for reference.
	IDD7 units.Current
}

// EvaluateOpts runs the baseline and every scheme on the given
// description and returns the results, baseline first. The baseline is
// built first (its figures feed every delta); the schemes then evaluate
// on the worker pool (Workers: 1 runs serially), each on its own copy of
// the baseline description (see core.Variant), so any worker count
// produces the same results.
func EvaluateOpts(base *desc.Description, opts engine.Options) ([]Result, error) {
	baseModel, err := core.Build(base)
	if err != nil {
		return nil, fmt.Errorf("schemes: baseline: %w", err)
	}
	baseE := float64(baseModel.EnergyPerBitIDD7())
	baseA := float64(baseModel.DieArea()) / 1e-6
	if baseE <= 0 || baseA <= 0 {
		return nil, fmt.Errorf("schemes: degenerate baseline (E=%g, A=%g)", baseE, baseA)
	}
	variants, err := engine.Map(All(), func(_ int, s Scheme) (r Result, err error) {
		err = core.Variant(base, nil, s.Apply, func(m *core.Model) error {
			e := float64(m.EnergyPerBitIDD7())
			a := float64(m.DieArea()) / 1e-6
			r = Result{
				Name:           s.Name,
				Source:         s.Source,
				Notes:          s.Notes,
				EnergyPerBit:   units.Energy(e),
				EnergyDeltaPct: 100 * (e - baseE) / baseE,
				DieAreaMM2:     a,
				AreaDeltaPct:   100 * (a - baseA) / baseA,
				IDD7:           m.IDD().IDD7,
			}
			return nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("schemes: %s: %w", s.Name, err)
		}
		return r, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(variants)+1)
	results = append(results, Result{
		Name:         "baseline (commodity)",
		Source:       "Section II floorplan",
		EnergyPerBit: units.Energy(baseE),
		DieAreaMM2:   baseA,
		IDD7:         baseModel.IDD().IDD7,
	})
	return append(results, variants...), nil
}

// ParetoNote classifies a result: schemes that save energy without area
// cost dominate; the paper's point is that most row-activation schemes
// trade area for energy.
func ParetoNote(r Result) string {
	switch {
	case r.EnergyDeltaPct < -1 && r.AreaDeltaPct <= 0.5:
		return "saves energy at negligible area cost"
	case r.EnergyDeltaPct < -1:
		return fmt.Sprintf("saves %.0f%% energy for %.1f%% area", -r.EnergyDeltaPct, r.AreaDeltaPct)
	case math.Abs(r.EnergyDeltaPct) <= 1:
		return "energy neutral"
	default:
		return fmt.Sprintf("costs %.0f%% energy per device bit", r.EnergyDeltaPct)
	}
}
