package trace

// The k-way merge behind every multi-channel trace: Interleave runs it
// over whole channel streams, and a Merger runs it over the part of each
// still-growing stream that no later command can precede, so a
// scheduler's output is merged round by round while it is produced.

import (
	"math"
	"slices"
	"sort"
)

// Interleave merges per-channel traces into one multi-channel trace with
// global bank indices, ordered by slot (ties resolve in channel order):
// channel ch's bank b becomes global bank ch*banksPerChannel+b. It is the
// inverse of the Replayer's sharding and is used to compose multi-channel
// traces from the single-device workload generators. Each channel's
// commands must be in slot order, as a trace's are; out of order, every
// command is still output once, in an unspecified order.
func Interleave(channels [][]Command, banksPerChannel int) []Command {
	total := 0
	for _, c := range channels {
		total += len(c)
	}
	var t loserTree
	return t.merge(make([]Command, 0, total), channels, banksPerChannel)
}

// Merger merges per-channel command streams into one multi-channel trace
// while they are still being produced. Each channel's commands queue on
// it, and Merge releases every queued command at or below a watermark w
// in Interleave's order, renumbering banks as Interleave does.
//
// The producer promises that each channel's slots strictly increase and
// that every command queued after Merge(dst, w) lies above w. The queued
// commands at or below w are then the next commands of Interleave's order
// over the whole streams, and the Merge outputs concatenate to exactly
// Interleave's result. A scheduler that places each command after its
// channel's previous one keeps the promise with w the lowest last slot of
// any channel: a channel that has produced nothing yet holds w below
// every slot, and Merge(dst, math.MaxInt64) ends the stream.
type Merger struct {
	banks  int
	queues [][]Command // per channel; queues[ch][heads[ch]:] is not merged yet
	heads  []int
	runs   [][]Command // Merge's scratch: each queue's part at or below w
	tree   loserTree
}

// NewMerger returns a Merger over the given number of channels.
func NewMerger(channels, banksPerChannel int) *Merger {
	return &Merger{
		banks:  banksPerChannel,
		queues: make([][]Command, channels),
		heads:  make([]int, channels),
		runs:   make([][]Command, channels),
	}
}

// Queue returns channel ch's queue for the producer to append commands
// to in place. Appends to distinct channels may run concurrently; none
// may overlap a Merge.
func (m *Merger) Queue(ch int) *[]Command { return &m.queues[ch] }

// ready returns how many of channel ch's queued commands lie at or below
// w: a prefix, since the queue's slots increase.
func (m *Merger) ready(ch int, w int64) int {
	q := m.queues[ch][m.heads[ch]:]
	return sort.Search(len(q), func(i int) bool { return q[i].Slot > w })
}

// Ready returns how many queued commands lie at or below w: the number
// Merge(dst, w) appends.
func (m *Merger) Ready(w int64) int {
	n := 0
	for ch := range m.queues {
		n += m.ready(ch, w)
	}
	return n
}

// Merge appends every queued command at or below w to dst, in
// Interleave's order, and drops them from the queues.
func (m *Merger) Merge(dst []Command, w int64) []Command {
	for ch := range m.queues {
		h := m.heads[ch]
		m.runs[ch] = m.queues[ch][h : h+m.ready(ch, w)]
	}
	dst = m.tree.merge(dst, m.runs, m.banks)
	for ch, q := range m.queues {
		h := m.heads[ch] + len(m.runs[ch])
		// Move the unmerged tail to the front once the merged head is at
		// least as long, so each command is moved at most once on average
		// and a queue holds no more dead commands than live ones.
		if live := len(q) - h; h >= live {
			m.queues[ch] = q[:copy(q, q[h:])]
			h = 0
		}
		m.heads[ch] = h
	}
	return dst
}

// loserTree is a tournament over k runs that yields their commands in
// Interleave's order in O(log k) steps per command. A leaf's key is its
// run's next slot and the run's index, compared in that order; a spent
// run's key is (math.MaxInt64, leaves+index), so it loses to every live
// run. Each inner node keeps the key that lost the match played there.
type loserTree struct {
	node []leafKey // node[1:]: the loser of each inner node's match
	cur  []cursor  // per leaf: its run's unmerged rest (none past the runs)
}

// leafKey orders the leaves by their run's next slot, then by leaf; a
// leaf number at or past the leaf count marks a spent run.
type leafKey struct {
	slot int64
	leaf int
}

func (a leafKey) less(b leafKey) bool {
	return a.slot < b.slot || a.slot == b.slot && a.leaf < b.leaf
}

// cursor is the unmerged rest of a run and its channel's first bank.
type cursor struct {
	cmds []Command
	bank int
}

// key returns the key of leaf r's next command.
func (t *loserTree) key(r int) leafKey {
	if cmds := t.cur[r].cmds; len(cmds) > 0 {
		return leafKey{cmds[0].Slot, r}
	}
	return leafKey{math.MaxInt64, len(t.cur) + r}
}

// build plays the matches below inner node nd and returns the winner's
// key.
func (t *loserTree) build(nd int) leafKey {
	if n := len(t.node); nd >= n {
		return t.key(nd - n)
	}
	a, b := t.build(2*nd), t.build(2*nd+1)
	if b.less(a) {
		a, b = b, a
	}
	t.node[nd] = b
	return a
}

// merge appends the commands of runs to dst in Interleave's order, run
// r's banks rebased by r*banks. Each run must be in slot order.
func (t *loserTree) merge(dst []Command, runs [][]Command, banks int) []Command {
	total, n := 0, 2
	for _, run := range runs {
		total += len(run)
	}
	for n < len(runs) {
		n *= 2
	}
	if cap(t.node) < n {
		t.node, t.cur = make([]leafKey, n), make([]cursor, n)
	}
	t.node, t.cur = t.node[:n], t.cur[:n]
	for r := range t.cur {
		t.cur[r] = cursor{bank: r * banks}
		if r < len(runs) {
			t.cur[r].cmds = runs[r]
		}
	}
	node, cur, top := t.node, t.cur, t.build(1)
	at := len(dst)
	dst = slices.Grow(dst, total)[:at+total]
	for ; at < len(dst); at++ {
		w := top.leaf
		l := &cur[w]
		c := l.cmds[0]
		l.cmds = l.cmds[1:]
		c.Bank += l.bank
		dst[at] = c
		k := t.key(w)
		for nd := (w + n) >> 1; nd > 0; nd >>= 1 {
			if node[nd].less(k) {
				node[nd], k = k, node[nd]
			}
		}
		top = k
	}
	return dst
}
