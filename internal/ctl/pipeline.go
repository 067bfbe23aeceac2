package ctl

// The streaming scheduler: ScheduleInto streams bounded per-channel
// command batches into a Sink instead of materializing the merged trace.
// A demultiplexer fills round N+1 with per-channel request batches while
// the batch engine schedules round N's channels and hands each channel's
// commands to the sink, the two rounds double-buffered through
// engine.Pipeline, the ring trace.ReplaySource runs on too. Peak memory
// is O(round), not O(trace); with a trace.Replayer as the sink,
// scheduling and energy accounting overlap and the merged command slice
// never exists. Schedule is this same path into a merging sink.
//
// Determinism: each channel's command sequence is independent of round
// boundaries (the scheduler is a stateful per-channel loop, and splitting
// its input into batches changes nothing), the refresh-debt fixpoint runs
// once after the last round, and the per-channel simulators accumulate in
// the same order as a two-phase schedule-then-replay run — so fused stats
// and energy are bit-identical to replaying Schedule's trace. DESIGN §14
// has the argument.

import (
	"io"
	"math"
	"sync"

	"drampower/internal/core"
	"drampower/internal/engine"
	"drampower/internal/trace"
)

// Sink consumes the scheduled command stream channel by channel. One
// channel's batches arrive in trace order; batches for distinct channels
// may be delivered concurrently (from different engine workers), so a
// Sink aggregating across channels must either be channel-partitioned —
// like the replayer's per-channel simulators — or lock. The batch slice
// is reused after Consume returns: a sink that retains commands must
// copy them.
type Sink interface {
	Consume(channel int, batch []trace.Command) error
}

// Discard drops every batch: schedule-only runs that want stats without
// a trace or energy accounting.
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) Consume(int, []trace.Command) error { return nil }

// mergeSink is the Sink behind Schedule and WriteSchedule. ScheduleInto
// schedules each round straight onto the channels' queues in a
// trace.Merger, so no round's batch is copied, and after every round
// calls endRound with the watermark: the lowest last slot of any
// channel, or math.MaxInt64 once the refresh flush has ended the
// stream. emit places every command after its channel's last one, so no
// later command lands at or below the watermark, and the commands at or
// below it are merged onto out in trace order. Schedule keeps them as
// the trace's chunks; WriteSchedule writes each round to w and reuses
// out. With one channel there is nothing to merge, and the channel is
// scheduled straight onto out.
type mergeSink struct {
	mg   *trace.Merger     // nil with one channel
	out  []trace.Command   // the trace's current chunk, or the round to write
	full [][]trace.Command // the trace's earlier chunks, in order
	w    trace.Writer      // nil when collecting the trace
}

// mergeChunk caps, in commands, the capacity a new chunk starts with
// (2 MB) unless one round's release needs more. The first chunk of a
// trace of unknown length holds the first release, and each later one
// doubles the one before.
const mergeChunk = 1 << 16

// newMergeSink returns a mergeSink for the controller's channels.
func newMergeSink(c *Controller, w trace.Writer) *mergeSink {
	s := &mergeSink{w: w}
	if n := len(c.chans); n > 1 {
		s.mg = trace.NewMerger(n, c.BanksPerChannel())
	}
	return s
}

// queue returns the slice channel ch is scheduled onto.
func (s *mergeSink) queue(ch int) *[]trace.Command {
	if s.mg == nil {
		return &s.out
	}
	return s.mg.Queue(ch)
}

// Consume queues a batch: the refresh flush's final commands, as
// ScheduleInto schedules every round straight onto the queues.
func (s *mergeSink) Consume(ch int, batch []trace.Command) error {
	q := s.queue(ch)
	*q = append(*q, batch...)
	return nil
}

// endRound merges the queued commands at or below the watermark onto out
// and, when writing, writes them.
func (s *mergeSink) endRound(watermark int64) error {
	if s.mg != nil {
		if s.w != nil {
			s.out = s.out[:0]
		} else if n := s.mg.Ready(watermark); cap(s.out)-len(s.out) < n {
			if len(s.out) > 0 {
				s.full = append(s.full, s.out)
			}
			s.out = make([]trace.Command, 0, max(n, min(2*cap(s.out), mergeChunk)))
		}
		s.out = s.mg.Merge(s.out, watermark)
	}
	if s.w == nil {
		return nil
	}
	for _, cmd := range s.out {
		if err := s.w.WriteCommand(cmd); err != nil {
			return err
		}
	}
	s.out = s.out[:0]
	return nil
}

// commands returns the collected trace: the one chunk as it is, or every
// chunk copied once into a slice of the exact length (so an empty trace
// is an empty slice, not nil).
func (s *mergeSink) commands() []trace.Command {
	if len(s.full) == 0 && s.out != nil {
		return s.out
	}
	n := len(s.out)
	for _, f := range s.full {
		n += len(f)
	}
	out := make([]trace.Command, 0, n)
	for _, f := range s.full {
		out = append(out, f...)
	}
	return append(out, s.out...)
}

// replaySink feeds each channel's batches to the matching per-channel
// simulator of a trace.Replayer.
type replaySink struct{ r *trace.Replayer }

func (s replaySink) Consume(ch int, batch []trace.Command) error {
	return s.r.RunChannel(ch, batch)
}

// ReplaySink returns a Sink that issues each channel's batches on the
// replayer's per-channel simulator (trace.Replayer.RunChannel). The
// replayer must have at least as many channels as the controller.
func ReplaySink(r *trace.Replayer) Sink { return replaySink{r} }

// schedBatch is the number of requests demultiplexed per pipeline round.
// A round expands to at most a few times this many commands, which
// bounds the fused path's memory regardless of trace length.
const schedBatch = 4096

// schedRound is one double-buffered demux round: per-channel request
// batches plus the terminal error, if the source ended inside this
// round. Rounds are pooled across ScheduleInto calls, so the steady
// state allocates nothing per round.
type schedRound struct {
	reqs [][]mappedReq
	n    int   // requests demultiplexed into this round
	err  error // terminal source/demux error (schedule the round, then report)
}

var schedRoundPool = sync.Pool{New: func() any { return new(schedRound) }}

// getSchedRound takes a pooled round sized for the channel count,
// retaining previously grown batch capacities.
func getSchedRound(channels int) *schedRound {
	r := schedRoundPool.Get().(*schedRound)
	for len(r.reqs) < channels {
		r.reqs = append(r.reqs, nil)
	}
	r.reqs = r.reqs[:channels]
	return r
}

// reset clears a round for refilling, keeping allocated capacity.
func (r *schedRound) reset() {
	for i := range r.reqs {
		r.reqs[i] = r.reqs[i][:0]
	}
	r.n, r.err = 0, nil
}

// cmdBufs recycles the per-channel command batch buffers across
// ScheduleInto calls (each a few hundred KB once grown), keeping the
// fused path's per-call allocations to the controller itself.
var cmdBufsPool = sync.Pool{New: func() any { return new([][]trace.Command) }}

// fillSchedRound refills rnd with up to schedBatch demultiplexed requests,
// reporting whether the stream is exhausted (end of input or error —
// the round still carries the valid prefix demultiplexed before the
// error, which is scheduled, so partial stats count every request before
// the failing one).
func (c *Controller) fillSchedRound(src Source, rnd *schedRound, last *int64, idx *int) (terminal bool) {
	rnd.reset()
	for rnd.n < schedBatch {
		if !src.Scan() {
			rnd.err = src.Err()
			return true
		}
		req := src.Request()
		co, err := c.checkAndMap(req, *idx, last)
		if err != nil {
			rnd.err = err
			return true
		}
		rnd.reqs[co.Channel] = append(rnd.reqs[co.Channel],
			mappedReq{slot: req.Slot, row: int32(co.Row), bank: int32(co.Bank), write: req.Write})
		rnd.n++
		*idx++
	}
	return false
}

// ScheduleInto schedules the access stream and streams the resulting
// commands into sink as bounded per-channel batches, never building the
// merged trace. The command sequences, stats and any sink-side
// accounting are bit-identical to Schedule's output fed through the
// sink afterwards; only the peak memory (O(round) versus O(trace)) and
// the overlap of scheduling with consumption differ.
//
// The first error wins deterministically: a sink error from the
// lowest-numbered failing channel of the earliest failing round, or the
// source/demux error that truncated the stream (the scheduled prefix's
// batches reach the sink first in both cases, and the stats count every
// request before the failing one). On a clean end of stream the refresh
// debt is retired (flushRefreshDebt) and each channel's final batch is
// delivered in channel order.
func (c *Controller) ScheduleInto(src Source, sink Sink) (Stats, error) {
	channels := len(c.chans)

	bufsp := cmdBufsPool.Get().(*[][]trace.Command)
	bufs := *bufsp
	for len(bufs) < channels {
		bufs = append(bufs, nil)
	}
	bufs = bufs[:channels]
	defer func() {
		*bufsp = bufs
		cmdBufsPool.Put(bufsp)
	}()

	rndA, rndB := getSchedRound(channels), getSchedRound(channels)
	defer func() {
		schedRoundPool.Put(rndA)
		schedRoundPool.Put(rndB)
	}()

	// One job per channel per round: schedule the channel's batch into
	// its (reused) command buffer and hand it to the sink. Sink errors
	// return as values so the lowest failing channel wins, mirroring the
	// replay pipeline's violation selection. A mergeSink's channels
	// schedule straight onto its queues rather than into a buffer it
	// would copy from.
	eo := c.engineOpts()
	direct, _ := sink.(*mergeSink)
	issue := func(i int, reqs []mappedReq) (error, error) {
		if len(reqs) == 0 {
			return nil, nil
		}
		ch := &c.chans[i]
		if direct != nil {
			q := direct.queue(i)
			ch.cmds = *q
			c.runChannel(ch, reqs)
			*q = ch.cmds
			return nil, nil
		}
		ch.cmds = bufs[i][:0]
		c.runChannel(ch, reqs)
		bufs[i] = ch.cmds
		return sink.Consume(i, ch.cmds), nil
	}

	// The demultiplexer (fill) is the only goroutine touching src.
	var last int64 = -1
	idx := 0
	fill := func(rnd *schedRound) bool { return c.fillSchedRound(src, rnd, &last, &idx) }
	err := engine.Pipeline(rndA, rndB, fill, func(rnd *schedRound) error {
		if rnd.n > 0 {
			sinkErrs, _ := engine.Map(rnd.reqs, issue, eo)
			for _, err := range sinkErrs {
				if err != nil {
					return err
				}
			}
			if direct != nil {
				if err := direct.endRound(c.watermark()); err != nil {
					return err
				}
			}
		}
		return rnd.err
	})
	if err != nil {
		return c.sumStats(), err
	}

	// Clean end of stream: retire the refresh debt (the one cross-channel
	// step, after the barrier the ring's drain provides) and deliver the
	// final batches in channel order; a mergeSink then merges the rest.
	for i := range c.chans {
		c.chans[i].cmds = bufs[i][:0]
	}
	c.flushRefreshDebt()
	for i := range c.chans {
		ch := &c.chans[i]
		bufs[i] = ch.cmds
		if len(ch.cmds) > 0 {
			if err := sink.Consume(i, ch.cmds); err != nil {
				return c.sumStats(), err
			}
		}
	}
	if direct != nil {
		return c.sumStats(), direct.endRound(math.MaxInt64)
	}
	return c.sumStats(), nil
}

// ScheduleReplay schedules an access trace read from rd (text or .dab,
// sniffed) and replays it through per-channel simulators as it is
// scheduled — the fused pipeline. It returns the scheduling stats and
// the merged energy result, ending the accounting one burst after the
// last command, exactly like replaying the materialized trace with
// trace.Replay: stats, energies and counts are bit-identical to the
// two-phase path, while peak memory stays O(batch). The replayer's
// channel count is forced to the controller's.
func ScheduleReplay(m *core.Model, rd io.Reader, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	return scheduleReplay(m, NewAccessSource(rd), opts, ropts)
}

// ScheduleReplayRequests is ScheduleReplay over an in-memory request
// slice.
func ScheduleReplayRequests(m *core.Model, reqs []Request, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	return scheduleReplay(m, NewSliceSource(reqs), opts, ropts)
}

func scheduleReplay(m *core.Model, src Source, opts Options, ropts trace.ReplayOptions) (Stats, trace.Result, error) {
	c, err := NewController(m, opts)
	if err != nil {
		return Stats{}, trace.Result{}, err
	}
	ropts.Channels = c.Channels()
	r := trace.NewReplayer(m, ropts)
	stats, err := c.ScheduleInto(src, ReplaySink(r))
	if err != nil {
		return stats, trace.Result{}, err
	}
	return stats, r.Result(r.Now() + int64(m.BurstSlots())), nil
}
