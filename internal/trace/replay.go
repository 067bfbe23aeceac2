package trace

// Multi-channel parallel replay: a Replayer shards one global command
// stream across one Simulator per channel and drives the channels
// concurrently on the shared batch engine (package engine), in bounded
// rounds so memory stays O(batch) regardless of trace length.
//
// Channel addressing is by global bank index: in a C-channel system whose
// devices have B banks each, global bank g addresses channel g/B, local
// bank g%B. A single-channel replay therefore accepts exactly the bank
// numbering Simulator.Run does, and its energy totals are bit-identical
// to the in-memory Run path (same simulator, same issue order, same
// float accumulation).

import (
	"fmt"
	"io"
	"sync"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/units"
)

// ReplayOptions configures a multi-channel replay.
type ReplayOptions struct {
	// Channels is the number of independent channels (devices) the trace
	// addresses; <= 0 means 1.
	Channels int
	// Workers bounds the workers driving the channels (engine semantics:
	// <= 0 selects runtime.GOMAXPROCS(0), 1 replays serially).
	Workers int
}

// replayBatch is the number of commands buffered per scheduling round.
// Each round shards up to this many commands to the channels and issues
// the per-channel batches concurrently; the shard buffers are reused, so
// replay memory is bounded by the round size, not the trace length.
const replayBatch = 1 << 15

// Replayer shards a multi-channel command trace across one Simulator per
// channel. The per-channel results merge deterministically (in channel
// order), so the merged Result is independent of the worker count.
type Replayer struct {
	m     *core.Model
	sims  []*Simulator
	banks int // banks per channel
	opts  engine.Options
}

// NewReplayer creates a replayer with one simulator per channel, all
// against the same (immutable, concurrently readable) model.
func NewReplayer(m *core.Model, opts ReplayOptions) *Replayer {
	ch := opts.Channels
	if ch < 1 {
		ch = 1
	}
	r := &Replayer{
		m:     m,
		sims:  make([]*Simulator, ch),
		banks: m.D.Spec.Banks(),
		opts:  engine.Options{Workers: opts.Workers},
	}
	for i := range r.sims {
		r.sims[i] = New(m)
	}
	return r
}

// Channels returns the channel count.
func (r *Replayer) Channels() int { return len(r.sims) }

// roundBuf is one double-buffered replay round: a decode slab the source
// fills in bulk plus the per-channel shard slices the engine issues. Round
// buffers are pooled across Replay* calls (roundPool), so steady-state
// replay performs no per-call slab or shard allocations — the dominant
// term of the old 4.9MB/op on BenchmarkTraceReplay1Ch.
type roundBuf struct {
	slab   []Command   // decoded commands, in stream order (the decoder's)
	shards [][]Command // per-channel commands, bank rebased (the consumer's)
	n      int         // commands decoded into this round
	err    error       // terminal parse error: issue the round first
}

// roundPool recycles round buffers across replays. The slabs are ~1MB
// each (replayBatch commands), so reuse — not per-call make — is what
// keeps the replay path's allocation profile flat.
var roundPool = sync.Pool{New: func() any { return new(roundBuf) }}

// getRound takes a pooled round buffer and sizes it for one replay round
// over the given channel count, retaining previously grown capacities.
func getRound(channels int) *roundBuf {
	b := roundPool.Get().(*roundBuf)
	if cap(b.slab) < replayBatch {
		b.slab = make([]Command, replayBatch)
	}
	b.slab = b.slab[:replayBatch]
	for len(b.shards) < channels {
		b.shards = append(b.shards, nil)
	}
	b.shards = b.shards[:channels]
	return b
}

// fillRound refills buf's slab with the next round decoded from src and
// records the stream's terminal error. It is the decoder goroutine's
// whole job; sharding runs on the consumer's side (shard). It reports
// whether the stream is exhausted (end of input or parse error).
func fillRound(src Source, buf *roundBuf) (terminal bool) {
	n := 0
	if bs, ok := src.(batchSource); ok {
		n = bs.ScanBatch(buf.slab)
	} else {
		for n < replayBatch && src.Scan() {
			buf.slab[n] = src.Command()
			n++
		}
	}
	buf.n, buf.err = n, nil
	if n < replayBatch {
		buf.err = src.Err()
		return true
	}
	return false
}

// shard splits the round's decoded commands into the per-channel shards
// by global bank index, rebasing each bank to its channel. A bank
// outside the system rejects the whole round: no command of it is
// issued (commands of earlier rounds already were).
func (r *Replayer) shard(buf *roundBuf) error {
	shards, banks, channels := buf.shards, r.banks, len(r.sims)
	for ch := range shards {
		shards[ch] = shards[ch][:0]
	}
	for _, c := range buf.slab[:buf.n] {
		ch := 0
		if banks > 0 {
			ch = c.Bank / banks
		}
		if c.Bank < 0 || ch >= channels {
			return &TimingError{c, fmt.Sprintf("bank %d outside the %d-channel x %d-bank system",
				c.Bank, channels, banks)}
		}
		c.Bank -= ch * banks
		shards[ch] = append(shards[ch], c)
	}
	return nil
}

// ReplaySource streams commands through the per-channel simulators with
// decode and simulation pipelined: a decoder goroutine bulk-decodes round
// N+1 (up to replayBatch commands) while the caller's goroutine shards
// round N by global bank index and the engine issues its per-channel
// batches, the two rounds double-buffered through engine.Pipeline.
// Results are identical to the serial loop — rounds are sharded and
// issued in stream order, the per-channel command sequences don't depend
// on pipelining, and the merge stays in channel order (see DESIGN §11 for
// the determinism argument).
//
// It stops at the first parse error or timing violation; when several
// channels of one round violate, the reported violation is the one at the
// smallest slot (ties resolving to the lowest channel), not merely the
// lowest-channel one — a slot-10 violation on channel 3 is never masked
// by a slot-900 violation on channel 0.
func (r *Replayer) ReplaySource(src Source) error {
	// Each channel returns its own violation as a value (not as the job
	// error) so the earliest-slot one can be selected across channels;
	// Run only ever fails with a *TimingError.
	issue := func(i int, cmds []Command) (*TimingError, error) {
		err := r.sims[i].Run(cmds)
		if err == nil {
			return nil, nil
		}
		te, ok := err.(*TimingError)
		if !ok {
			return nil, err
		}
		return te, nil
	}

	bufA, bufB := getRound(len(r.sims)), getRound(len(r.sims))
	defer func() {
		roundPool.Put(bufA)
		roundPool.Put(bufB)
	}()
	// The decoder (fill) is the only goroutine touching src.
	fill := func(buf *roundBuf) bool { return fillRound(src, buf) }
	return engine.Pipeline(bufA, bufB, fill, func(buf *roundBuf) error {
		// A bank-range error outranks the round's parse error: the bad
		// bank was decoded before the stream broke.
		if err := r.shard(buf); err != nil {
			return err
		}
		if buf.n > 0 {
			violations, err := engine.Map(buf.shards, issue, r.opts)
			if err != nil {
				return err
			}
			var first *TimingError
			for _, te := range violations {
				if te != nil && (first == nil || te.Cmd.Slot < first.Cmd.Slot) {
					first = te
				}
			}
			if first != nil {
				// A violation in the final partial round outranks the parse
				// error that truncated it: the violation happened first.
				return first
			}
		}
		return buf.err
	})
}

// Replay streams a trace from rd through the channels, sniffing the
// encoding (dtb binary or text) from the first byte.
func (r *Replayer) Replay(rd io.Reader) error {
	return r.ReplaySource(NewSource(rd))
}

// RunChannel issues one channel's command batch on that channel's
// simulator. Banks are channel-local (0..banks-1), not global — exactly
// the numbering the scheduler's per-channel streams carry, so the fused
// schedule→replay pipeline feeds batches here without the
// Interleave-then-reshard round trip. Batches for one channel must
// arrive in trace order; batches for distinct channels may be issued
// concurrently (each channel owns its simulator). The accumulated state
// is identical to replaying the interleaved trace: Run is a stateful
// sequential loop, so batch boundaries don't exist to it.
func (r *Replayer) RunChannel(ch int, cmds []Command) error {
	if ch < 0 || ch >= len(r.sims) {
		return fmt.Errorf("trace: channel %d outside the %d-channel replayer", ch, len(r.sims))
	}
	return r.sims[ch].Run(cmds)
}

// Now returns the latest slot any channel has reached.
func (r *Replayer) Now() int64 {
	var n int64
	for _, s := range r.sims {
		if s.Now() > n {
			n = s.Now()
		}
	}
	return n
}

// Result closes the replay at endSlot (extended to the latest channel's
// slot if smaller) and merges the per-channel results deterministically:
// energies, bits, counts and the per-state residency/background fields
// sum in channel order over the common duration (the four slot counters
// therefore sum to Channels x Slots), rates are recomputed from the
// merged totals, and the bus utilization averages across the channels
// (each channel owns a data bus). With one channel the result is exactly
// Simulator.Result's.
func (r *Replayer) Result(endSlot int64) Result {
	if e := r.Now(); endSlot < e {
		endSlot = e
	}
	merged := r.sims[0].Result(endSlot)
	if len(r.sims) == 1 {
		return merged
	}
	util := merged.BusUtilization
	for _, s := range r.sims[1:] {
		cr := s.Result(endSlot)
		merged.CommandEnergy += cr.CommandEnergy
		merged.Background += cr.Background
		merged.Total += cr.Total
		merged.Bits += cr.Bits
		merged.ActiveSlots += cr.ActiveSlots
		merged.PrechargedSlots += cr.PrechargedSlots
		merged.PowerDownSlots += cr.PowerDownSlots
		merged.SelfRefreshSlots += cr.SelfRefreshSlots
		merged.ActiveBackground += cr.ActiveBackground
		merged.PrechargedBackground += cr.PrechargedBackground
		merged.PowerDownBackground += cr.PowerDownBackground
		merged.SelfRefreshBackground += cr.SelfRefreshBackground
		// Retention audit: refresh counts and misses sum across channels;
		// the widest per-channel gap is the trace's worst case.
		merged.Refreshes += cr.Refreshes
		merged.MissedRefreshDeadlines += cr.MissedRefreshDeadlines
		if cr.MaxRefreshInterval > merged.MaxRefreshInterval {
			merged.MaxRefreshInterval = cr.MaxRefreshInterval
		}
		for op, n := range cr.Counts {
			if merged.Counts == nil {
				merged.Counts = make(map[desc.Op]int64, numTraceOps)
			}
			merged.Counts[op] += n
		}
		util += cr.BusUtilization
	}
	merged.BusUtilization = util / float64(len(r.sims))
	merged.AveragePower, merged.AverageCurrent, merged.EnergyPerBit = 0, 0, 0
	if merged.Duration > 0 {
		merged.AveragePower = units.Power(float64(merged.Total) / float64(merged.Duration))
		if v := r.m.D.Electrical.Vdd; v > 0 {
			merged.AverageCurrent = units.Current(float64(merged.AveragePower) / float64(v))
		}
	}
	if merged.Bits > 0 {
		merged.EnergyPerBit = units.Energy(float64(merged.Total) / float64(merged.Bits))
	}
	return merged
}

// Replay streams a trace against the model over the given channel/worker
// configuration and reports the merged result, ending the accounting one
// burst after the last command (matching Evaluate, so a single-channel
// replay of a trace equals Evaluate on the materialized commands exactly).
func Replay(m *core.Model, rd io.Reader, opts ReplayOptions) (Result, error) {
	r := NewReplayer(m, opts)
	if err := r.Replay(rd); err != nil {
		return Result{}, err
	}
	return r.Result(r.Now() + int64(m.BurstSlots())), nil
}

// cmdSliceSource adapts an in-memory command slice to the Source
// interface, so already-materialized traces (e.g. a scheduler's output)
// replay without a serialize/re-parse round trip.
type cmdSliceSource struct {
	cmds []Command
	i    int
}

// NewSliceSource returns a Source over an in-memory command slice.
func NewSliceSource(cmds []Command) Source { return &cmdSliceSource{cmds: cmds} }

func (s *cmdSliceSource) Scan() bool {
	if s.i >= len(s.cmds) {
		return false
	}
	s.i++
	return true
}

func (s *cmdSliceSource) Command() Command { return s.cmds[s.i-1] }

func (s *cmdSliceSource) Err() error { return nil }
