package ctl

// The scheduler: turns a FIFO access stream into per-channel command
// streams that trace.Simulator accepts without a single timing
// violation, then merges them with trace.Interleave.
//
// The controller is deliberately simple — in-order, one request at a
// time, one command per slot per channel — because the paper's question
// is not "how fast can a controller go" but "how much energy does a
// policy cost". Four decisions shape the answer and all four are
// options here: the address map (mapper.go) fixes which requests share a
// row, the page policy decides when rows close (open until conflict,
// closed after every access, or closed after an idle timeout), the
// power-down policy decides whether idle gaps are spent in precharged
// standby, precharge power-down or self-refresh, and the refresh
// scheduler keeps every channel retention-clean: an all-bank ref every
// tREFI, postponed JEDEC-style (up to Options.MaxPostponed) while
// requests are in flight, forced in a catch-up burst before a deadline
// can pass, and suppressed inside self-refresh windows, which cover
// retention on their own.
//
// Scheduling is deterministic by construction: no maps are iterated, no
// randomness or wall-clock time is read, and every placement is the
// arithmetic earliest legal slot given prior placements. Same input,
// same options -> byte-identical trace. See DESIGN §12 for the legality
// argument (every placement asks timing.Rules, the rulebook the Simulator
// checks with) and §13 for the refresh scheduler's determinism and
// retention argument.
//
// All of that state is channel-local, which is what the sharded
// execution exploits: requests demultiplex by the mapper's channel bits
// into per-channel batches, each channel schedules as an independent job
// on the batch engine, and only the end-of-trace refresh-debt fixpoint
// (which needs the global trace end) runs after the barrier. DESIGN §14
// has the full argument; pipeline.go has the streaming scheduler, which
// Schedule drives with a collecting sink.

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"drampower/internal/core"
	"drampower/internal/desc"
	"drampower/internal/engine"
	"drampower/internal/timing"
	"drampower/internal/trace"
)

// Policy selects the page-management strategy.
type Policy int

const (
	// PolicyOpen leaves a row open after access until a conflicting
	// request or the end of the trace closes it. Cheapest when locality
	// is high (row hits cost only a RD/WR), costly when it is low (every
	// conflict pays PRE+ACT back to back, and an open row blocks
	// power-down).
	PolicyOpen Policy = iota
	// PolicyClosed precharges the bank immediately after every access.
	// Every request pays ACT+RD/WR+PRE, but the device returns to
	// all-banks-closed at once, so idle gaps can drop into power-down.
	PolicyClosed
	// PolicyTimeout leaves rows open but closes any bank whose row has
	// been idle for Options.PageTimeout slots — the middle ground real
	// controllers ship.
	PolicyTimeout
)

// String returns the -policy flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyOpen:
		return "open"
	case PolicyClosed:
		return "closed"
	case PolicyTimeout:
		return "timeout"
	}
	return "policy(" + strconv.Itoa(int(p)) + ")"
}

// ParsePolicy parses a -policy flag value: "open", "closed" or
// "timeout=N" with N a positive idle window in slots.
func ParsePolicy(s string) (Policy, int64, error) {
	switch s {
	case "open":
		return PolicyOpen, 0, nil
	case "closed":
		return PolicyClosed, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "timeout="); ok {
		n, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || n < 1 {
			return 0, 0, fmt.Errorf("ctl: bad page timeout %q (want timeout=N with N >= 1)", s)
		}
		return PolicyTimeout, n, nil
	}
	return 0, 0, fmt.Errorf("ctl: unknown policy %q (want open, closed or timeout=N)", s)
}

// Options configures a Controller.
type Options struct {
	// Policy is the page-management policy; PageTimeout is the idle
	// window (slots) for PolicyTimeout and ignored otherwise.
	Policy      Policy
	PageTimeout int64

	// Map is the address interleave spec (DefaultMap when empty).
	Map string

	// Channels is the number of independent channels the flat address
	// space spreads over (power of two; 1 when zero).
	Channels int

	// PowerDownAfter, when positive, enters precharge power-down once a
	// channel has had all banks closed and no work for that many slots —
	// provided the gap to the next request is long enough to come back
	// out (tCKEmin + tXP) without delaying it. Zero disables.
	PowerDownAfter int64

	// SelfRefreshAfter, when positive, prefers self-refresh over
	// power-down for idle gaps at least that long (it must exceed
	// PowerDownAfter to ever win; the exit pays tXS instead of tXP).
	// Zero disables.
	SelfRefreshAfter int64

	// RefreshEvery overrides the refresh interval (tREFI) in slots. Zero
	// resolves it from the spec's RefreshInterval; refresh scheduling is
	// off when neither is available. It must exceed the spec's tRFC — a
	// device that spends its whole interval refreshing can never meet
	// retention.
	RefreshEvery int64

	// MaxPostponed bounds JEDEC-style refresh postponement: the k-th
	// refresh obligation (due at k*tREFI) may slip to (k+MaxPostponed)*
	// tREFI before the scheduler forces a catch-up burst. Zero means the
	// JEDEC default of 8 (trace.MaxPostponedRefreshes).
	MaxPostponed int

	// DisableRefresh turns refresh scheduling off entirely — the
	// pre-refresh controller behavior, kept for A/B comparisons. The
	// replay auditor will report the missed deadlines.
	DisableRefresh bool

	// Workers bounds the per-channel scheduling parallelism (engine
	// semantics: <= 0 selects one worker per CPU, 1 schedules serially).
	// The worker count never changes the output: per-channel state is
	// independent and stats merge in channel order.
	Workers int

	// Pool, when set, runs the channel jobs on a shared long-lived
	// engine pool instead of per-call goroutines (see
	// engine.Options.Pool); the dramserved server threads its pool
	// through here so concurrent requests share one bounded worker set.
	Pool *engine.Pool
}

// PolicySpec returns the canonical -policy spelling of the page policy:
// "open", "closed" or "timeout=N". ParsePolicy reads it back.
func (o Options) PolicySpec() string {
	if o.Policy == PolicyTimeout {
		return "timeout=" + strconv.FormatInt(o.PageTimeout, 10)
	}
	return o.Policy.String()
}

// MapSpec returns the address interleave spec in use: Map, or DefaultMap
// when Map is empty.
func (o Options) MapSpec() string {
	if o.Map == "" {
		return DefaultMap
	}
	return o.Map
}

// Stats summarizes one scheduling run.
type Stats struct {
	Requests int64 `json:"requests"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`

	// Row-buffer outcome per request: a hit finds the row open, a miss
	// finds the bank closed, a conflict finds a different row open.
	RowHits      int64 `json:"row_hits"`
	RowMisses    int64 `json:"row_misses"`
	RowConflicts int64 `json:"row_conflicts"`

	// Commands is the total emitted, including power-state commands.
	Commands int64 `json:"commands"`
	// TimeoutPrecharges counts banks closed by the PolicyTimeout idle
	// window (zero under other policies).
	TimeoutPrecharges int64 `json:"timeout_precharges,omitempty"`
	// PowerDowns and SelfRefreshes count inserted pde/pdx and sre/srx
	// pairs.
	PowerDowns    int64 `json:"power_downs,omitempty"`
	SelfRefreshes int64 `json:"self_refreshes,omitempty"`

	// Refreshes counts all-bank ref commands issued. PostponedRefreshes
	// counts those that landed after their nominal due slot (k*tREFI);
	// ForcedRefreshes those issued under deadline pressure — the catch-up
	// bursts, power-down segmentation boundaries and the end-of-trace
	// debt retirement — rather than opportunistically in an idle gap.
	Refreshes          int64 `json:"refreshes,omitempty"`
	PostponedRefreshes int64 `json:"postponed_refreshes,omitempty"`
	ForcedRefreshes    int64 `json:"forced_refreshes,omitempty"`

	// Slots is the slot of the last scheduled command (zero for an empty
	// trace).
	Slots int64 `json:"slots"`
}

// RowHitRate returns RowHits over total requests (zero when empty).
func (st Stats) RowHitRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return float64(st.RowHits) / float64(st.Requests)
}

// ScheduleError reports a request the scheduler cannot place: out of
// FIFO order, or outside the mapped address space.
type ScheduleError struct {
	Index int // 0-based request ordinal
	Req   Request
	Msg   string
	err   error
}

// Error implements the error interface.
func (e *ScheduleError) Error() string {
	return fmt.Sprintf("ctl: request %d (%s): %s", e.Index, e.Req, e.Msg)
}

// Unwrap exposes the underlying cause (e.g. the mapper error).
func (e *ScheduleError) Unwrap() error { return e.err }

// slotHorizon bounds the slots the controller reasons about: request
// slots, the slot-valued options and the refresh window
// (MaxPostponed+1)*tREFI are each at most 2^61 slots (about 91 years at
// 800 MHz), so no sum of a slot, an option and a timing constant can
// reach 2^63 and wrap. NewController and checkAndMap reject anything
// past it.
const slotHorizon = 1 << 61

// openLink links an open bank into its channel's expiry list under
// PolicyTimeout (-1 ends the list); see chanState.oldest.
type openLink struct {
	lastUse    int64 // last activate or column access
	prev, next int
}

// chanState is one channel's scheduler state. Its timing state is the
// embedded timing.Rules, the rulebook the replay Simulator checks with, so
// every placement below is legal by the same code that checks it.
type chanState struct {
	timing.Rules
	cmds []trace.Command
	now  int64 // slot of the last emitted command (-1 when none)

	// Under PolicyTimeout the open banks also sit on a doubly-linked list
	// through links, oldest lastUse first (-1 when empty). Every use
	// moves its bank to the tail, and a channel emits one command per
	// slot, so lastUse strictly increases along the list: it is expiry
	// order, and sweepTimeouts only ever looks at the head.
	links          []openLink
	oldest, newest int

	// stats accumulates this channel's share of the run: every field is
	// an additive counter, so summing the channels in index order
	// (sumStats) reproduces the single-accumulator totals exactly — the
	// property that lets the channels schedule concurrently without
	// sharing a stats struct.
	stats Stats
}

// Controller schedules one access stream. It is single-use: build with
// NewController, feed one Source to Schedule.
type Controller struct {
	opts   Options
	mapper *Mapper
	chans  []chanState

	// t is the device timing; its REFI is the resolved refresh interval
	// the scheduler keeps (0 = refresh off).
	t       timing.Timing
	maxPost int64 // postponement bound (obligations)
}

// NewController builds a controller for the model. The zero Options
// value means: open-page policy, DefaultMap, one channel, no power-down.
func NewController(m *core.Model, opts Options) (*Controller, error) {
	if opts.Channels < 1 {
		opts.Channels = 1
	}
	mapper, err := MapperFor(m, opts.Channels, opts.MapSpec())
	if err != nil {
		return nil, err
	}
	if opts.Policy == PolicyTimeout && opts.PageTimeout < 1 {
		return nil, fmt.Errorf("ctl: timeout policy needs PageTimeout >= 1 (got %d)", opts.PageTimeout)
	}
	pageTimeout := int64(0) // the policy's window; ignored by the others
	if opts.Policy == PolicyTimeout {
		pageTimeout = opts.PageTimeout
	}
	if opts.PowerDownAfter < 0 || opts.SelfRefreshAfter < 0 {
		return nil, fmt.Errorf("ctl: negative power-down/self-refresh threshold")
	}
	if opts.RefreshEvery < 0 {
		return nil, fmt.Errorf("ctl: negative RefreshEvery")
	}
	if opts.MaxPostponed < 0 {
		return nil, fmt.Errorf("ctl: negative MaxPostponed")
	}
	for _, o := range [...]struct {
		name  string
		slots int64
	}{
		{"PageTimeout", pageTimeout},
		{"PowerDownAfter", opts.PowerDownAfter},
		{"SelfRefreshAfter", opts.SelfRefreshAfter},
		{"RefreshEvery", opts.RefreshEvery},
	} {
		if o.slots > slotHorizon {
			return nil, fmt.Errorf("ctl: %s %d slots exceeds the %d-slot horizon", o.name, o.slots, int64(slotHorizon))
		}
	}
	c := &Controller{opts: opts, mapper: mapper, t: timing.For(m.D.Spec)}
	switch {
	case opts.DisableRefresh:
		c.t.REFI = 0
	case opts.RefreshEvery > 0:
		c.t.REFI = opts.RefreshEvery
	}
	if c.t.REFI > 0 && c.t.REFI <= c.t.RFC {
		return nil, fmt.Errorf("ctl: refresh interval %d slots must exceed tRFC (%d slots)", c.t.REFI, c.t.RFC)
	}
	c.maxPost = int64(opts.MaxPostponed)
	if c.maxPost == 0 {
		c.maxPost = trace.MaxPostponedRefreshes
	}
	if c.t.REFI > 0 && c.maxPost > slotHorizon/c.t.REFI-1 {
		return nil, fmt.Errorf("ctl: MaxPostponed %d: refresh window (MaxPostponed+1)*tREFI with tREFI %d slots exceeds the %d-slot horizon",
			c.maxPost, c.t.REFI, int64(slotHorizon))
	}
	banks := m.D.Spec.Banks()
	c.chans = make([]chanState, opts.Channels)
	for i := range c.chans {
		ch := &c.chans[i]
		ch.Reset(c.t, banks)
		ch.now = -1
		if opts.Policy == PolicyTimeout {
			ch.links = make([]openLink, banks)
		}
		ch.oldest, ch.newest = -1, -1
	}
	return c, nil
}

// RefreshIntervalSlots returns the resolved tREFI in slots (0 when
// refresh scheduling is off).
func (c *Controller) RefreshIntervalSlots() int64 { return c.t.REFI }

// BanksPerChannel returns the per-channel bank count (for
// trace.ReplayOptions and global-bank interpretation).
func (c *Controller) BanksPerChannel() int {
	return c.chans[0].Banks()
}

// Channels returns the resolved channel count.
func (c *Controller) Channels() int { return len(c.chans) }

// Mapper returns the address mapper in use.
func (c *Controller) Mapper() *Mapper { return c.mapper }

// emit places one command on the channel at the later of at and the
// next free command-bus slot (one command per slot per channel, so
// per-channel slots are strictly increasing and the merged trace is in
// non-decreasing slot order). It returns the slot actually used.
func (c *Controller) emit(ch *chanState, at int64, op desc.Op, bank, row int) int64 {
	slot := max(at, ch.now+1)
	ch.cmds = append(ch.cmds, trace.Command{Slot: slot, Op: op, Bank: bank, Row: row})
	ch.now = slot
	ch.stats.Commands++
	return slot
}

// pushOpen stamps bank bi's use at slot and appends it to the tail of
// the channel's open list.
func (ch *chanState) pushOpen(bi int, slot int64) {
	l := &ch.links[bi]
	l.lastUse, l.prev, l.next = slot, ch.newest, -1
	if ch.newest >= 0 {
		ch.links[ch.newest].next = bi
	} else {
		ch.oldest = bi
	}
	ch.newest = bi
}

// unlinkOpen removes bank bi from the channel's open list.
func (ch *chanState) unlinkOpen(bi int) {
	l := &ch.links[bi]
	if l.prev >= 0 {
		ch.links[l.prev].next = l.next
	} else {
		ch.oldest = l.next
	}
	if l.next >= 0 {
		ch.links[l.next].prev = l.prev
	} else {
		ch.newest = l.prev
	}
}

// activate emits ACT of row on bank bi at its earliest legal slot at or
// after t.
func (c *Controller) activate(ch *chanState, bi int, row int, t int64) int64 {
	slot := c.emit(ch, max(t, ch.ActivateAt(bi)), desc.OpActivate, bi, row)
	ch.Activate(bi, row, slot)
	if c.opts.Policy == PolicyTimeout {
		ch.pushOpen(bi, slot)
	}
	return slot
}

// precharge emits PRE on bank bi at its earliest legal slot at or after
// want.
func (c *Controller) precharge(ch *chanState, bi int, want int64) int64 {
	slot := c.emit(ch, max(want, ch.PrechargeAt(bi)), desc.OpPrecharge, bi, 0)
	ch.Precharge(bi, slot)
	if c.opts.Policy == PolicyTimeout {
		ch.unlinkOpen(bi)
	}
	return slot
}

// column emits RD/WR on row, open in bank bi, at its earliest legal slot
// at or after want.
func (c *Controller) column(ch *chanState, bi, row int, write bool, want int64) int64 {
	op := desc.OpRead
	if write {
		op = desc.OpWrite
	}
	slot := c.emit(ch, max(want, ch.ColumnAt(bi)), op, bi, row)
	ch.Column(bi, slot)
	if c.opts.Policy == PolicyTimeout {
		ch.unlinkOpen(bi)
		ch.pushOpen(bi, slot)
	}
	return slot
}

// sweepTimeouts closes banks whose rows have idled past the page
// timeout, earliest expiry first: the head of the open list, until the
// head's expiry is later than t.
func (c *Controller) sweepTimeouts(ch *chanState, t int64) {
	if c.opts.Policy != PolicyTimeout {
		return
	}
	for ch.oldest >= 0 {
		bi := ch.oldest
		exp := ch.links[bi].lastUse + c.opts.PageTimeout
		if exp > t {
			return
		}
		c.precharge(ch, bi, exp)
		ch.stats.TimeoutPrecharges++
	}
}

// quietSlot is the first slot the channel is fully quiet: past the last
// command and wherever the rulebook first allows a low-power entry.
func (c *Controller) quietSlot(ch *chanState) int64 {
	return max(ch.now, ch.LowPowerAt(), 0)
}

// issueRef emits one all-bank refresh at the earliest legal slot at or
// after want: open rows are precharged first (fixed bank-index order, so
// placement is deterministic), then the refresh waits out tRP on those
// precharges and whatever the rulebook's refresh rules demand. The tRP
// wait is stricter than the Simulator (which only demands all banks
// closed) — the real device cannot refresh a row mid-precharge. Callers
// pass the obligation's due slot as want, so credit never runs ahead of
// the epoch clock.
func (c *Controller) issueRef(ch *chanState, want int64) int64 {
	if ch.OpenBanks() > 0 {
		var pre int64 // the last precharge (slots are never negative)
		for bi := range ch.Banks() {
			if _, open := ch.Row(bi); open {
				pre = max(pre, c.precharge(ch, bi, 0))
			}
		}
		want = max(want, pre+c.t.RP)
	}
	due := ch.Due()
	slot := c.emit(ch, max(want, ch.RefreshAt()), desc.OpRefresh, 0, 0)
	ch.Refresh(slot)
	ch.stats.Refreshes++
	if slot > due {
		ch.stats.PostponedRefreshes++
	}
	return slot
}

// forceRefresh catches up on obligations that can no longer wait: any
// whose postponement deadline falls within one interval of the
// channel's near future is served before the request (a catch-up burst
// when several are overdue). The horizon uses the channel clock, not
// the arrival slot — a backlogged channel emits commands far past
// arrival times, and deadlines bind in trace time.
func (c *Controller) forceRefresh(ch *chanState, t int64) {
	for ch.Deadline(c.maxPost) <= max(t, ch.now)+c.t.REFI {
		c.issueRef(ch, ch.Due())
		ch.stats.ForcedRefreshes++
	}
}

// fillGap schedules the idle gap ending at the next request's first
// command slot (start): the refreshes that belong inside it, and
// self-refresh or power-down windows around them. Low-power insertion
// is self-contained — entry and exit are emitted together, sized so the
// pending command at start stays legal — and only happens when all
// banks were closed at gap entry, which is what couples page policy to
// idle energy: an open-page controller holding a row open cannot power
// down (a refresh's precharge-all mid-gap does not retroactively grant
// the window; the open row was the policy's choice). Refreshes are not
// so gated: under the open policy they force the rows closed, which is
// the open page's refresh tax.
func (c *Controller) fillGap(ch *chanState, start int64) {
	lowPower := ch.OpenBanks() == 0 &&
		(c.opts.PowerDownAfter > 0 || c.opts.SelfRefreshAfter > 0)

	// Prefer self-refresh for long gaps: deeper state, slower exit, and
	// retention is covered internally — the refresh epoch restarts at
	// the exit. Obligations whose deadline precedes the entry must still
	// issue first.
	if lowPower && c.opts.SelfRefreshAfter > 0 {
		for {
			enter := max(c.quietSlot(ch)+c.opts.SelfRefreshAfter, ch.now+1)
			exit := start - c.t.XS
			if exit < enter+c.t.CKE {
				break // no room for self-refresh; try power-down below
			}
			if c.t.REFI > 0 && ch.Deadline(c.maxPost) < enter {
				c.issueRef(ch, ch.Due())
				ch.stats.ForcedRefreshes++
				continue
			}
			ch.EnterLowPower(c.emit(ch, enter, trace.OpSelfRefreshEnter, 0, 0))
			ch.ExitSelfRefresh(c.emit(ch, exit, trace.OpSelfRefreshExit, 0, 0))
			ch.stats.SelfRefreshes++
			return
		}
	}

	// Refreshes that belong to this gap, with power-down windows
	// segmented between them: a window never spans a refresh — it ends
	// tXP before the ref lands, so the ref is legal the slot the exit
	// window closes. An obligation is served in this gap when it can
	// complete before the request's first command (at its due slot, not
	// postponed: the refresh costs the same now or later, and serving it
	// now keeps the observed interval at tREFI) or when its postponement
	// deadline falls inside the gap (then it issues even if the request
	// slips by tRFC). Anything else is postponed to a later gap or to
	// forceRefresh's catch-up burst.
	for c.t.REFI > 0 {
		due, deadline := ch.Due(), ch.Deadline(c.maxPost)
		quiet := c.quietSlot(ch)
		refAt := max(due, quiet) // where issueRef would land it
		fits := refAt+c.t.RFC <= start
		must := deadline <= start
		if !fits && !must {
			break // next obligation is a later gap's (or catch-up's) problem
		}
		if lowPower && c.opts.PowerDownAfter > 0 {
			c.powerDown(ch, max(quiet+c.opts.PowerDownAfter, ch.now+1), refAt-c.t.XP)
		}
		c.issueRef(ch, due)
		if must && !fits {
			ch.stats.ForcedRefreshes++ // deadline inside the gap: issue even if it delays the request
		}
	}

	// A power-down window over whatever remains of the gap (or all of it
	// when no refresh came due).
	if lowPower && c.opts.PowerDownAfter > 0 {
		c.powerDown(ch, max(c.quietSlot(ch)+c.opts.PowerDownAfter, ch.now+1), start-c.t.XP)
	}
}

// powerDown emits a pde at enter and its pdx at exit when the window
// leaves tCKEmin of residency.
func (c *Controller) powerDown(ch *chanState, enter, exit int64) {
	if exit < enter+c.t.CKE {
		return
	}
	ch.EnterLowPower(c.emit(ch, enter, trace.OpPowerDownEnter, 0, 0))
	ch.ExitPowerDown(c.emit(ch, exit, trace.OpPowerDownExit, 0, 0))
	ch.stats.PowerDowns++
}

// firstCommandSlot computes where the request's first command would land
// given current channel state, without emitting anything — the
// power-down inserter needs it to size the idle gap.
func (c *Controller) firstCommandSlot(ch *chanState, bi int, row int, t int64) int64 {
	var at int64
	switch r, open := ch.Row(bi); {
	case open && r == row: // hit: RD/WR directly
		at = ch.ColumnAt(bi)
	case open: // conflict: PRE first
		at = ch.PrechargeAt(bi)
	default: // miss: ACT first
		at = ch.ActivateAt(bi)
	}
	return max(t, at, ch.now+1)
}

// request schedules one mapped request arriving at slot t.
func (c *Controller) request(ch *chanState, co Coord, write bool, t int64) {
	bi := co.Bank
	c.sweepTimeouts(ch, t)
	if c.t.REFI > 0 {
		c.forceRefresh(ch, t)
	}
	c.fillGap(ch, c.firstCommandSlot(ch, bi, co.Row, t))
	switch r, open := ch.Row(bi); {
	case open && r == co.Row:
		ch.stats.RowHits++
	case open:
		ch.stats.RowConflicts++
		c.precharge(ch, bi, t)
		c.activate(ch, bi, co.Row, t)
	default:
		ch.stats.RowMisses++
		c.activate(ch, bi, co.Row, t)
	}
	c.column(ch, bi, co.Row, write, t)
	if c.opts.Policy == PolicyClosed {
		c.precharge(ch, bi, t)
	}
	if write {
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
	}
	ch.stats.Requests++
}

// mappedReq is one demultiplexed request: validated, mapped to its
// channel-local device coordinates, and queued for the per-channel
// scheduler. At 24 bytes it is also smaller than the ~3 commands it
// expands into, so queueing requests (not commands) is the cheaper side
// to buffer.
type mappedReq struct {
	slot  int64
	row   int32
	bank  int32
	write bool
}

// checkAndMap validates FIFO arrival order and maps one request to
// device coordinates — the demultiplex step, which positions its errors
// by request ordinal.
func (c *Controller) checkAndMap(req Request, idx int, last *int64) (Coord, error) {
	if req.Slot < *last {
		return Coord{}, &ScheduleError{Index: idx, Req: req,
			Msg: fmt.Sprintf("out of order (previous request at slot %d)", *last)}
	}
	if req.Slot > slotHorizon {
		return Coord{}, &ScheduleError{Index: idx, Req: req,
			Msg: fmt.Sprintf("slot beyond the %d-slot horizon", int64(slotHorizon))}
	}
	*last = req.Slot
	co, err := c.mapper.Map(req.Addr)
	if err != nil {
		return Coord{}, &ScheduleError{Index: idx, Req: req, Msg: err.Error(), err: err}
	}
	return co, nil
}

// sourceLen reports how many requests remain in src when the source
// knows (in-memory slices), so Schedule can size its per-channel command
// slices up front instead of growing them by append doubling.
func sourceLen(src Source) (int, bool) {
	if s, ok := src.(interface{ Len() int }); ok {
		return s.Len(), true
	}
	return 0, false
}

// runChannel schedules one channel's demultiplexed requests in arrival
// order. It touches only ch and the controller's immutable timing
// fields — the independence that makes per-channel jobs safe to run
// concurrently.
func (c *Controller) runChannel(ch *chanState, reqs []mappedReq) {
	for i := range reqs {
		r := &reqs[i]
		c.request(ch, Coord{Bank: int(r.bank), Row: int(r.row)}, r.write, r.slot)
	}
}

// engineOpts is the batch-engine configuration for the channel jobs.
func (c *Controller) engineOpts() engine.Options {
	return engine.Options{Workers: c.opts.Workers, Pool: c.opts.Pool}
}

// flushRefreshDebt retires the end-of-trace refresh debt: every channel
// owes one refresh per tREFI elapsed up to the trace's global end — an
// idle channel is still a powered channel whose cells leak, and
// postponed obligations don't vanish at trace end; a trace spanning T
// slots pays its steady-state floor(T/tREFI) refreshes, which is exactly
// the paper's IDD5-over-tREFI refresh energy term. Serving the debt can
// itself extend the end, so iterate to a fixed point (each round's new
// debt shrinks by tRFC/tREFI, which NewController guarantees is < 1).
//
// The global end couples the channels, so this runs serially after the
// per-channel jobs' barrier, always in channel-index order — the one
// cross-channel step of a scheduling run.
func (c *Controller) flushRefreshDebt() {
	if c.t.REFI <= 0 {
		return
	}
	for {
		end := int64(0)
		for i := range c.chans {
			end = max(end, c.chans[i].now)
		}
		progress := false
		for i := range c.chans {
			ch := &c.chans[i]
			for ch.Due() <= end {
				c.issueRef(ch, ch.Due())
				ch.stats.ForcedRefreshes++
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// sumStats merges the per-channel stats in channel-index order. Every
// field is additive except Slots, which is the latest slot any channel
// emitted at.
func (c *Controller) sumStats() Stats {
	var st Stats
	for i := range c.chans {
		ch := &c.chans[i]
		s := &ch.stats
		st.Requests += s.Requests
		st.Reads += s.Reads
		st.Writes += s.Writes
		st.RowHits += s.RowHits
		st.RowMisses += s.RowMisses
		st.RowConflicts += s.RowConflicts
		st.Commands += s.Commands
		st.TimeoutPrecharges += s.TimeoutPrecharges
		st.PowerDowns += s.PowerDowns
		st.SelfRefreshes += s.SelfRefreshes
		st.Refreshes += s.Refreshes
		st.PostponedRefreshes += s.PostponedRefreshes
		st.ForcedRefreshes += s.ForcedRefreshes
		st.Slots = max(st.Slots, ch.now)
	}
	return st
}

// Schedule consumes the access stream and returns the merged command
// trace (global bank indices, non-decreasing slots) plus scheduling
// stats. Requests must arrive in non-decreasing slot order.
//
// It is ScheduleInto with a sink that collects each channel's commands,
// followed by trace.Interleave's fixed channel-order merge — so the trace
// and stats are byte-identical at any worker count, and bit-identical to
// what ScheduleInto streams into any other sink. On an error the valid
// prefix is still scheduled (the stats count every request before the
// failing one), but there is no refresh flush and no merged trace.
func (c *Controller) Schedule(src Source) ([]trace.Command, Stats, error) {
	col := make(collector, len(c.chans))
	if n, ok := sourceLen(src); ok && n > 0 {
		// Three commands bound a request (PRE+ACT+RD/WR, or ACT+RD/WR+PRE
		// under the closed policy); low-power entry/exit pairs add about
		// one more per request, and the constant leaves room for
		// refreshes. Sizing tighter than that matters: zeroing the slices
		// is a large share of Schedule's cost. An undersized slice merely
		// falls back to append growth.
		cmdsPerReq := 3
		if c.opts.PowerDownAfter > 0 || c.opts.SelfRefreshAfter > 0 {
			cmdsPerReq = 4
		}
		per := cmdsPerReq*n/len(c.chans) + 1024
		for i := range col {
			col[i] = make([]trace.Command, 0, per)
		}
	}
	stats, err := c.ScheduleInto(src, col)
	if err != nil {
		return nil, stats, err
	}
	return trace.Interleave(col, c.BanksPerChannel()), stats, nil
}

// Schedule builds a controller and schedules an access trace read from
// rd (text or .dab, sniffed).
func Schedule(m *core.Model, rd io.Reader, opts Options) ([]trace.Command, Stats, error) {
	c, err := NewController(m, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return c.Schedule(NewAccessSource(rd))
}

// ScheduleRequests schedules an in-memory request slice.
func ScheduleRequests(m *core.Model, reqs []Request, opts Options) ([]trace.Command, Stats, error) {
	c, err := NewController(m, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return c.Schedule(NewSliceSource(reqs))
}
