// Package geom derives physical geometry from a DRAM description's
// floorplan: block positions and sizes, die dimensions, signal segment
// lengths (center-to-center Manhattan routing, Section III.B.2 of the
// paper) and array-block internals such as sub-array counts and stripe
// counts (Section II, Figure 1).
package geom

import (
	"fmt"

	"drampower/internal/desc"
	"drampower/internal/units"
)

// Grid is the resolved floorplan: per-axis block extents and cumulative
// coordinates.
type Grid struct {
	fp *desc.Floorplan

	// colWidth[i] is the width of grid column i; colCenter[i] the x
	// coordinate of its center. Likewise for rows. The four are windows
	// of ext.
	colWidth, rowHeight  []units.Length
	colCenter, rowCenter []units.Length
	ext                  []units.Length

	// Die extents.
	Width, Height units.Length
}

// Resolve resolves the floorplan into g, reusing g's storage when it is
// large enough. The description should have passed Validate; Resolve
// still reports missing sizes as errors rather than panicking.
func (g *Grid) Resolve(fp *desc.Floorplan) error {
	// One array backs the four extent slices.
	nx, ny := len(fp.HorizontalBlocks), len(fp.VerticalBlocks)
	ext := g.ext
	if cap(ext) < 2*nx+2*ny {
		ext = make([]units.Length, 2*nx+2*ny)
	}
	ext = ext[:2*nx+2*ny]
	*g = Grid{fp: fp, ext: ext}
	g.colWidth, ext = ext[:nx:nx], ext[nx:]
	g.colCenter, ext = ext[:nx:nx], ext[nx:]
	g.rowHeight, g.rowCenter = ext[:ny:ny], ext[ny:]
	var x units.Length
	for i, name := range fp.HorizontalBlocks {
		w, ok := fp.BlockWidth[name]
		if !ok {
			return fmt.Errorf("geom: block %q has no horizontal size", name)
		}
		g.colWidth[i] = w
		g.colCenter[i] = x + w/2
		x += w
	}
	g.Width = x
	var y units.Length
	for i, name := range fp.VerticalBlocks {
		h, ok := fp.BlockHeight[name]
		if !ok {
			return fmt.Errorf("geom: block %q has no vertical size", name)
		}
		g.rowHeight[i] = h
		g.rowCenter[i] = y + h/2
		y += h
	}
	g.Height = y
	return nil
}

// DieArea returns the die area.
func (g *Grid) DieArea() units.Area {
	return units.Area(float64(g.Width) * float64(g.Height))
}

// BlockSize returns the width and height of the block at r.
func (g *Grid) BlockSize(r desc.BlockRef) (w, h units.Length, err error) {
	if err := g.check(r); err != nil {
		return 0, 0, err
	}
	return g.colWidth[r.X], g.rowHeight[r.Y], nil
}

// BlockCenter returns the die coordinates of the center of block r.
func (g *Grid) BlockCenter(r desc.BlockRef) (x, y units.Length, err error) {
	if err := g.check(r); err != nil {
		return 0, 0, err
	}
	return g.colCenter[r.X], g.rowCenter[r.Y], nil
}

// IsArray reports whether the grid cell at r is part of an array block:
// both its column and its row must be named as array strips.
func (g *Grid) IsArray(r desc.BlockRef) bool {
	if g.check(r) != nil {
		return false
	}
	return desc.IsArrayBlock(g.fp.HorizontalBlocks[r.X]) &&
		desc.IsArrayBlock(g.fp.VerticalBlocks[r.Y])
}

// SegmentLength computes the routed wire length of a signal segment:
// inside-form segments take fraction × block extent along their direction,
// span-form segments take the Manhattan distance between the two block
// centers.
func (g *Grid) SegmentLength(s *desc.Segment) (units.Length, error) {
	switch {
	case s.Inside != nil:
		w, h, err := g.BlockSize(*s.Inside)
		if err != nil {
			return 0, fmt.Errorf("geom: signal %s: %v", s.Name, err)
		}
		ext := w
		if s.Dir == desc.Vertical {
			ext = h
		}
		return units.Length(float64(ext) * s.Fraction), nil
	case s.Start != nil && s.End != nil:
		x1, y1, err := g.BlockCenter(*s.Start)
		if err != nil {
			return 0, fmt.Errorf("geom: signal %s: %v", s.Name, err)
		}
		x2, y2, err := g.BlockCenter(*s.End)
		if err != nil {
			return 0, fmt.Errorf("geom: signal %s: %v", s.Name, err)
		}
		return absLen(x2-x1) + absLen(y2-y1), nil
	}
	return 0, fmt.Errorf("geom: signal %s has neither inside nor span form", s.Name)
}

func absLen(l units.Length) units.Length {
	if l < 0 {
		return -l
	}
	return l
}

func (g *Grid) check(r desc.BlockRef) error {
	if r.X < 0 || r.X >= len(g.colWidth) || r.Y < 0 || r.Y >= len(g.rowHeight) {
		return fmt.Errorf("geom: block %v outside %dx%d grid", r, len(g.colWidth), len(g.rowHeight))
	}
	return nil
}

// ArrayLayout describes the internal organization of one array block
// (bank), derived from the floorplan parameters (Section II).
type ArrayLayout struct {
	// BankWidth/BankHeight are the block extents.
	BankWidth, BankHeight units.Length
	// CellsPerBLDir is the number of cells along the bitline direction in
	// the whole bank (wordline count), CellsPerWLDir the number across.
	CellsPerBLDir, CellsPerWLDir int
	// SubarraysAlongBL is the number of sub-arrays stacked along the
	// bitline direction; SubarraysAlongWL across the wordline direction.
	SubarraysAlongBL, SubarraysAlongWL int
	// BLSAStripes and LWDStripes count the sense-amplifier and local
	// wordline driver stripes in the bank (fence-post: subarrays + 1).
	BLSAStripes, LWDStripes int
	// LocalBLLength and LocalWLLength are the wire lengths of one local
	// bitline and one local wordline.
	LocalBLLength, LocalWLLength units.Length
	// MasterWLLength is the length of a master wordline (spans the bank
	// across the bitline direction); CSLLength the length of a column
	// select line (spans along the bitline direction over BlocksPerCSL
	// blocks); MDQLength the length of the master array data lines
	// (parallel to master wordlines).
	MasterWLLength, CSLLength, MDQLength units.Length
	// PageBits is the number of cells sensed by one activation: one local
	// wordline per sub-array across the full bank width.
	PageBits int
	// BLSAPairsPerStripe is the number of sense amplifiers in one stripe
	// that participate in a page activation.
	BLSAPairsPerStripe int
}

// Resolve derives the array layout for one bank into a. The bank
// footprint is taken from the named array block's grid extents; the cell
// counts from the pitches after subtracting stripe overhead.
func (a *ArrayLayout) Resolve(fp *desc.Floorplan, bankW, bankH units.Length) error {
	if fp.WordlinePitch <= 0 || fp.BitlinePitch <= 0 {
		return fmt.Errorf("geom: cell pitches must be positive")
	}
	if fp.BitsPerBitline <= 0 || fp.BitsPerLocalWordline <= 0 {
		return fmt.Errorf("geom: bits per bitline / local wordline must be positive")
	}
	*a = ArrayLayout{BankWidth: bankW, BankHeight: bankH}

	// Extents along the bitline direction and across it.
	alongBL, acrossBL := bankH, bankW
	if fp.BitlineDir == desc.Horizontal {
		alongBL, acrossBL = bankW, bankH
	}

	// Along the bitline: sub-arrays of BitsPerBitline cells separated by
	// BLSA stripes (fence-post). Solve for the sub-array count that fits.
	subLen := units.Length(float64(fp.BitsPerBitline) * float64(fp.WordlinePitch))
	nBL := int(float64(alongBL-fp.BLSAStripeWidth) / float64(subLen+fp.BLSAStripeWidth))
	if nBL < 1 {
		nBL = 1
	}
	a.SubarraysAlongBL = nBL
	a.BLSAStripes = nBL + 1
	a.CellsPerBLDir = nBL * fp.BitsPerBitline
	a.LocalBLLength = subLen

	// Across the bitline: sub-arrays of BitsPerLocalWordline cells
	// separated by LWD stripes.
	lwlLen := units.Length(float64(fp.BitsPerLocalWordline) * float64(fp.BitlinePitch))
	nWL := int(float64(acrossBL-fp.LWDStripeWidth) / float64(lwlLen+fp.LWDStripeWidth))
	if nWL < 1 {
		nWL = 1
	}
	a.SubarraysAlongWL = nWL
	a.LWDStripes = nWL + 1
	a.CellsPerWLDir = nWL * fp.BitsPerLocalWordline
	a.LocalWLLength = lwlLen

	a.MasterWLLength = acrossBL
	a.MDQLength = acrossBL
	a.CSLLength = units.Length(float64(alongBL) * float64(fp.BlocksPerCSL))

	// One activation raises one local wordline in each sub-array across
	// the bank: PageBits = BitsPerLocalWordline × SubarraysAlongWL cells.
	// In a folded architecture only every other bitline has a cell on a
	// given wordline, which is already captured by BitsPerLocalWordline
	// counting cells (not bitline tracks).
	a.PageBits = fp.BitsPerLocalWordline * nWL
	a.BLSAPairsPerStripe = a.PageBits / nBL // page cells served per stripe row
	return nil
}

// ArrayBlockExtents finds the grid extents of the first array block, in
// row-major order, and returns its layout; most descriptions have
// identical banks so this is the canonical per-bank layout.
func ArrayBlockExtents(g *Grid) (bankW, bankH units.Length, err error) {
	for y := range g.fp.VerticalBlocks {
		for x := range g.fp.HorizontalBlocks {
			if r := (desc.BlockRef{X: x, Y: y}); g.IsArray(r) {
				return g.BlockSize(r)
			}
		}
	}
	return 0, 0, fmt.Errorf("geom: floorplan has no array blocks")
}
