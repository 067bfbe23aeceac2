package desc

import (
	"fmt"
)

// ValidationError collects every problem found in a description so a user
// can fix an input file in one pass.
type ValidationError struct {
	Problems []string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	switch len(e.Problems) {
	case 0:
		return "desc: invalid description"
	case 1:
		return "desc: " + e.Problems[0]
	}
	return fmt.Sprintf("desc: %d problems, first: %s", len(e.Problems), e.Problems[0])
}

func (e *ValidationError) addf(format string, args ...any) {
	e.Problems = append(e.Problems, fmt.Sprintf(format, args...))
}

// Validate checks the description for internal consistency: required
// parameters present, block references resolvable, voltages ordered
// sensibly, pattern non-empty. It returns nil or a *ValidationError
// listing every problem.
func (d *Description) Validate() error {
	var e ValidationError // on the stack: a valid description allocates nothing

	fp := &d.Floorplan
	if fp.BitsPerBitline <= 0 {
		e.addf("floorplan: BitsPerBL must be positive, got %d", fp.BitsPerBitline)
	}
	if fp.BitsPerLocalWordline <= 0 {
		e.addf("floorplan: BitsPerLWL must be positive, got %d", fp.BitsPerLocalWordline)
	}
	if fp.BlocksPerCSL <= 0 {
		e.addf("floorplan: blocks per CSL must be positive, got %d", fp.BlocksPerCSL)
	}
	if fp.WordlinePitch <= 0 {
		e.addf("floorplan: wordline pitch must be positive, got %v", fp.WordlinePitch)
	}
	if fp.BitlinePitch <= 0 {
		e.addf("floorplan: bitline pitch must be positive, got %v", fp.BitlinePitch)
	}
	if fp.BLSAStripeWidth <= 0 {
		e.addf("floorplan: BLSA stripe width must be positive, got %v", fp.BLSAStripeWidth)
	}
	if fp.LWDStripeWidth <= 0 {
		e.addf("floorplan: LWD stripe width must be positive, got %v", fp.LWDStripeWidth)
	}
	if fp.ActivationFraction < 0 || fp.ActivationFraction > 1 {
		e.addf("floorplan: activation fraction %g outside [0,1]", fp.ActivationFraction)
	}
	if len(fp.HorizontalBlocks) == 0 {
		e.addf("floorplan: no horizontal block list")
	}
	if len(fp.VerticalBlocks) == 0 {
		e.addf("floorplan: no vertical block list")
	}
	// Every named block needs a size along both axes, and at least one
	// array block must exist.
	arrays := 0
	for _, n := range fp.HorizontalBlocks {
		if _, ok := fp.BlockWidth[n]; !ok {
			e.addf("floorplan: block %q has no horizontal size", n)
		}
		if IsArrayBlock(n) {
			arrays++
		}
	}
	for _, n := range fp.VerticalBlocks {
		if _, ok := fp.BlockHeight[n]; !ok {
			e.addf("floorplan: block %q has no vertical size", n)
		}
	}
	if arrays == 0 && len(fp.HorizontalBlocks) > 0 {
		e.addf("floorplan: no array block (name starting with 'A') in horizontal list")
	}

	for i, s := range d.Signals {
		hasInside := s.Inside != nil
		hasSpan := s.Start != nil || s.End != nil
		switch {
		case hasInside && hasSpan:
			e.addf("signal %s: both inside-form and span-form given", s.Name)
		case hasInside:
			if s.Fraction <= 0 || s.Fraction > 1 {
				e.addf("signal %s: fraction %g outside (0,1]", s.Name, s.Fraction)
			}
			if !d.blockRefValid(*s.Inside) {
				e.addf("signal %s: block %v outside floorplan grid", s.Name, *s.Inside)
			}
		case hasSpan:
			if s.Start == nil || s.End == nil {
				e.addf("signal %s: span-form needs both start and end", s.Name)
			} else {
				if !d.blockRefValid(*s.Start) {
					e.addf("signal %s: start block %v outside floorplan grid", s.Name, *s.Start)
				}
				if !d.blockRefValid(*s.End) {
					e.addf("signal %s: end block %v outside floorplan grid", s.Name, *s.End)
				}
			}
		default:
			e.addf("signal %s: neither inside-form nor span-form given", s.Name)
		}
		if s.MuxRatio < 0 {
			e.addf("signal %s: negative mux ratio %d", s.Name, s.MuxRatio)
		}
		if s.Wires < 0 {
			e.addf("signal %s: negative wire count %d", s.Name, s.Wires)
		}
		if s.ActiveFrac < 0 || s.ActiveFrac > 1 {
			e.addf("signal %s: active fraction %g outside [0,1]", s.Name, s.ActiveFrac)
		}
		_ = i
	}

	t := &d.Technology
	checkPos := func(what string, v float64) {
		if v <= 0 {
			e.addf("technology: %s must be positive, got %g", what, v)
		}
	}
	checkPos("gate oxide logic", float64(t.GateOxideLogic))
	checkPos("gate oxide HV", float64(t.GateOxideHV))
	checkPos("gate oxide cell", float64(t.GateOxideCell))
	checkPos("min gate length logic", float64(t.MinGateLengthLogic))
	checkPos("min gate length HV", float64(t.MinGateLengthHV))
	checkPos("cell access length", float64(t.CellAccessLength))
	checkPos("cell access width", float64(t.CellAccessWidth))
	checkPos("bitline capacitance", float64(t.BitlineCap))
	checkPos("cell capacitance", float64(t.CellCap))
	checkPos("wire cap master wordline", float64(t.WireCapMWL))
	checkPos("wire cap local wordline", float64(t.WireCapLWL))
	checkPos("wire cap signal", float64(t.WireCapSignal))
	if t.BitlineToWLShare < 0 || t.BitlineToWLShare > 1 {
		e.addf("technology: bitline-to-wordline share %g outside [0,1]", t.BitlineToWLShare)
	}
	if t.BitsPerCSL <= 0 {
		e.addf("technology: bits per CSL must be positive, got %d", t.BitsPerCSL)
	}

	s := &d.Spec
	if s.IOWidth <= 0 {
		e.addf("specification: IO width must be positive, got %d", s.IOWidth)
	}
	if s.DataRate <= 0 {
		e.addf("specification: data rate must be positive, got %v", s.DataRate)
	}
	if s.ControlClock <= 0 {
		e.addf("specification: control clock must be positive, got %v", s.ControlClock)
	}
	if s.DataClock <= 0 {
		e.addf("specification: data clock must be positive, got %v", s.DataClock)
	}
	if s.RowCycle <= 0 {
		e.addf("specification: row cycle time (tRC) must be positive, got %v", s.RowCycle)
	}
	if s.BankAddrBits < 0 || s.RowAddrBits <= 0 || s.ColAddrBits <= 0 {
		e.addf("specification: address bits invalid (bank=%d row=%d col=%d)",
			s.BankAddrBits, s.RowAddrBits, s.ColAddrBits)
	}
	if s.BankAddrBits > MaxBankAddrBits {
		e.addf("specification: bankadd=%d exceeds the bound of %d bank address bits",
			s.BankAddrBits, MaxBankAddrBits)
	}
	if s.RowAddrBits > MaxAddrBits {
		e.addf("specification: rowadd=%d exceeds the bound of %d row address bits",
			s.RowAddrBits, MaxAddrBits)
	}
	if s.ColAddrBits > MaxAddrBits {
		e.addf("specification: coladd=%d exceeds the bound of %d column address bits",
			s.ColAddrBits, MaxAddrBits)
	}
	if s.BurstLength < 0 {
		e.addf("specification: negative burst length %d", s.BurstLength)
	}

	el := &d.Electrical
	if el.Vdd <= 0 {
		e.addf("electrical: Vdd must be positive, got %v", el.Vdd)
	}
	if el.Vint <= 0 || el.Vbl <= 0 || el.Vpp <= 0 {
		e.addf("electrical: all domain voltages must be positive (Vint=%v Vbl=%v Vpp=%v)",
			el.Vint, el.Vbl, el.Vpp)
	}
	if el.Vpp > 0 && el.Vpp <= el.Vbl {
		e.addf("electrical: Vpp (%v) must exceed Vbl (%v) for cell write-back", el.Vpp, el.Vbl)
	}
	for _, eff := range []struct {
		name string
		v    float64
	}{{"Vint", el.EffInt}, {"Vbl", el.EffBl}, {"Vpp", el.EffPp}} {
		if eff.v <= 0 || eff.v > 1 {
			e.addf("electrical: %s generator efficiency %g outside (0,1]", eff.name, eff.v)
		}
	}
	if el.ConstantCurrent < 0 {
		e.addf("electrical: negative constant current %v", el.ConstantCurrent)
	}

	for _, b := range d.LogicBlocks {
		if b.Gates <= 0 {
			e.addf("logic block %s: gate count must be positive, got %d", b.Name, b.Gates)
		}
		if b.AvgNMOSWidth <= 0 || b.AvgPMOSWidth <= 0 {
			e.addf("logic block %s: device widths must be positive", b.Name)
		}
		if b.TransistorsPerGate <= 0 {
			e.addf("logic block %s: transistors per gate must be positive", b.Name)
		}
		if b.GateDensity <= 0 || b.GateDensity > 1 {
			e.addf("logic block %s: gate density %g outside (0,1]", b.Name, b.GateDensity)
		}
		if b.WiringDensity < 0 || b.WiringDensity > 1 {
			e.addf("logic block %s: wiring density %g outside [0,1]", b.Name, b.WiringDensity)
		}
		if b.Toggle < 0 {
			e.addf("logic block %s: negative toggle rate %g", b.Name, b.Toggle)
		}
	}

	if len(d.Pattern.Loop) == 0 {
		e.addf("pattern: empty command loop")
	}

	if len(e.Problems) == 0 {
		return nil
	}
	return &ValidationError{Problems: e.Problems}
}

// blockRefValid reports whether r lies inside the floorplan grid.
func (d *Description) blockRefValid(r BlockRef) bool {
	return r.X >= 0 && r.X < len(d.Floorplan.HorizontalBlocks) &&
		r.Y >= 0 && r.Y < len(d.Floorplan.VerticalBlocks)
}
