package core

import (
	"sync"

	"drampower/internal/desc"
)

// scratch is Variant's pooled storage: a description and the model built
// from it.
type scratch struct {
	d desc.Description
	*storage
}

var scratches = sync.Pool{New: func() any { return &scratch{storage: newStorage()} }}

// Variant builds a variant of base in pooled scratch storage and hands
// the model to use. It copies base into a scratch description
// (desc.Description.CloneInto), lets apply change the copy, builds the
// copy with the calibration overlay ov into a scratch model (the build
// path of BuildCalibrated) and returns use's error, or the build's. Once
// the scratch is warm, a variant allocates nothing, and its measurement
// loops are placed again only when apply changed what placement reads
// (see Model.loops).
//
// The next Variant that takes the scratch rebuilds the description and
// the model in place, so neither outlives use: use must not keep the
// model or anything that shares its storage (its description, Charges,
// Background, Segments). apply may change any field of the copy but
// must not make it share storage with another description. base is only
// read, so concurrent variants of one base are safe.
func Variant(base *desc.Description, ov *desc.Overlay, apply func(*desc.Description), use func(*Model) error) error {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	base.CloneInto(&s.d)
	apply(&s.d)
	if err := s.m.build(&s.d, ov); err != nil {
		return err
	}
	return use(&s.m)
}
