// Package timing is the one copy of the JEDEC timing rules: a device's
// timing constraints in control-clock slots (Timing, For) and the
// rulebook that decides where each command may go (Rules). The trace
// Simulator checks every command against it, the controller in
// internal/ctl places every command with it, and package core places the
// paper's IDD measurement loops with it, so "legal by construction" rests
// on shared code rather than on copies kept in step by hand. The package
// needs only the description's specification.
package timing

import (
	"math"

	"drampower/internal/desc"
	"drampower/internal/units"
)

// Timing holds a device's timing constraints in control-clock slots.
type Timing struct {
	// Row timings: activate to activate on one bank (RC), activate to
	// column command (RCD), precharge to activate (RP), activate to
	// precharge (RAS), activate to activate across banks (RRD), and the
	// window that admits at most four activates (FAW, 0 when unbounded).
	RC, RCD, RP, RAS, RRD, FAW int64
	// Burst is the data-bus occupancy of one read or write.
	Burst int64
	// RFC is the refresh cycle and REFI the refresh interval (0 when the
	// spec carries none).
	RFC, REFI int64
	// Power-state timings: minimum CKE-low residency (tCKEmin),
	// power-down exit to first valid command (tXP) and self-refresh exit
	// to first valid command (tXS).
	CKE, XP, XS int64
}

// For resolves a specification's timing constraints to slots. It is the
// only duration-to-slot conversion: a duration takes the slots it needs,
// rounded up.
func For(spec desc.Specification) Timing {
	toSlots := func(d units.Duration) int64 {
		// Guard against float noise pushing an exact multiple (7.5 ns at
		// 800 MHz = 6.0 slots) over the next integer.
		return int64(math.Ceil(float64(d)*float64(spec.ControlClock) - 1e-9))
	}
	t := Timing{
		RC:    max(2, toSlots(spec.RowCycle)),
		RCD:   max(1, toSlots(spec.RowToColumnDelay)),
		RP:    max(1, toSlots(spec.PrechargeTime)),
		RRD:   max(1, toSlots(spec.RowToRowDelay)),
		FAW:   max(0, toSlots(spec.FourBankWindow)),
		Burst: int64(BurstSlots(spec)),
		RFC:   max(1, toSlots(spec.RefreshCycle)),
		REFI:  max(0, toSlots(spec.RefreshInterval)),
	}
	t.RAS = max(1, t.RC-t.RP)
	// The description language has no tCKE/tXP/tXS fields, so they are
	// derived from the row timings, landing on the DDR3-1600 datasheet
	// ballpark: tCKEmin ~ tRP/2 (4 nCK), tXP ~ tRCD/2 (5 nCK), tXS ~
	// tRFC + tRP (tRFC + 10 ns). See DESIGN §9.
	t.CKE = max(3, t.RP/2)
	t.XP = max(3, (t.RCD+1)/2)
	t.XS = t.RFC + max(2, t.RP)
	return t
}

// BurstSlots returns the number of control-clock slots one burst occupies
// on the data bus: burst length / data bits per control cycle per pin.
// For a DDR interface clocked at the control clock this is burstLength/2;
// the result is at least 1.
func BurstSlots(spec desc.Specification) int {
	if spec.ControlClock <= 0 || spec.DataRate <= 0 {
		return 1
	}
	bitsPerSlotPerPin := float64(spec.DataRate) / float64(spec.ControlClock)
	bl := spec.BurstLength
	if bl <= 0 {
		bl = spec.Prefetch()
	}
	return max(1, int(math.Ceil(float64(bl)/bitsPerSlotPerPin)))
}
