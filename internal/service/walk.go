package service

import (
	"sync"
	"time"

	"accrual/internal/core"
)

// This file holds the full-registry read primitive of the lock-free
// evaluation plane. The published snapshots (see entry in service.go)
// make a full-registry read a pure array scan: walkShard is that scan,
// and every fleet read — EachLevel, EachInfo, AppendShardInfos, TopK,
// RankedAppend, Snapshot and the coalesced Shared variants — is a thin
// caller of it. Two consumers at the same instant want the same scan,
// so the coalescer below lets one pass feed both.

// eachSlot calls fn with every slab slot of the shard up to its
// high-water mark, bound or free — the registry's one slab-walk loop.
// The shard lock is held only to capture the chunk table and slot count:
// chunks are append-only and never moved, so the captured prefix stays
// valid for the monitor's lifetime; slots bound after the capture are
// simply not visited this pass. fn runs with no lock held and decides
// for itself what a slot's binding means (see walkShard, ExportState,
// EachTuneInfo, Retune).
func (sh *shard) eachSlot(fn func(e *entry)) {
	sh.mu.RLock()
	chunks, n := sh.slab.chunks, int(sh.slab.next)
	sh.mu.RUnlock()
	for _, chunk := range chunks {
		if n <= 0 {
			return
		}
		for j := range chunk[:min(slabChunkSize, n)] {
			fn(&chunk[j])
		}
		n -= slabChunkSize
	}
}

// walkShard evaluates every bound slot of one shard at now, straight
// off the slab arrays: no entry locks, no map iteration — each slot is
// one seqlock read plus a pure snapshot evaluation. fn gets the binding,
// its level and its last-arrival stamp (UnixNano), all from one
// consistent read of the cell, so a slot rebound mid-walk is skipped or
// attributed to exactly one binding, never mixed.
func walkShard(sh *shard, now time.Time, fn func(meta *entryMeta, lvl core.Level, last int64)) {
	nowNs := core.EvalNanos(now)
	sh.eachSlot(func(e *entry) {
		meta, snap, last, ok := e.loadEval()
		if !ok {
			return // free slot
		}
		var lvl core.Level
		if snap.Kind != core.EvalNone {
			lvl = snap.LevelAt(nowNs)
		} else if lvl, ok = e.lockedLevel(meta, now); !ok {
			return // unbound mid-walk
		}
		fn(meta, lvl, last)
	})
}

// walkCoalescer single-flights full-registry walks: while one consumer's
// pass is in flight, later consumers queue their callbacks instead of
// starting their own O(N) scans, and the in-flight leader runs one more
// pass that feeds the whole batch. Consumers still block until their
// callback has seen every process, so the contract ("fn saw the fleet at
// one clock reading") is unchanged — the reading is just the batch's
// rather than each caller's own, which is the staleness the coalescing
// tick trades for doing one walk instead of k (documented in
// docs/TUNING.md "Read-path scaling").
type walkCoalescer struct {
	mu      sync.Mutex
	running bool
	queue   []*walkJoin // consumers waiting for the next batch pass
	batch   []*walkJoin // the pass currently being fed (leader-owned)
	fanFn   func(info ProcessInfo)
}

// walkJoin is one queued consumer: exactly one of fn / levelFn is set.
// Joins are pooled; the done channel is allocated once per pooled
// object.
type walkJoin struct {
	fn      func(info ProcessInfo)
	levelFn func(id string, lvl core.Level)
	done    chan struct{}
}

var joinPool = sync.Pool{
	New: func() any { return &walkJoin{done: make(chan struct{}, 1)} },
}

// EachInfoShared is EachInfo through the coalescer: same-instant
// consumers (scrape + gossip + QoS sampler firing together) share one
// walk's output instead of each paying for their own.
//
// A joined consumer's fn may execute on the leader's goroutine. It must
// therefore not acquire any lock the *other* shared-walk consumers hold
// while joined (the QoS estimator lock, the federation mutex); holding
// one's own lock across the join is fine — mutual exclusion is
// preserved because the joiner stays blocked until its callback is done.
func (m *Monitor) EachInfoShared(fn func(info ProcessInfo)) {
	m.sharedWalk(fn, nil)
}

// EachLevelShared is EachLevel through the coalescer; see EachInfoShared
// for the callback constraints.
func (m *Monitor) EachLevelShared(fn func(id string, lvl core.Level)) {
	m.sharedWalk(nil, fn)
}

func (m *Monitor) sharedWalk(infoFn func(info ProcessInfo), levelFn func(id string, lvl core.Level)) {
	c := &m.coal
	c.mu.Lock()
	if c.running {
		// Join the in-flight leader's next batch pass.
		j := joinPool.Get().(*walkJoin)
		j.fn, j.levelFn = infoFn, levelFn
		c.queue = append(c.queue, j)
		c.mu.Unlock()
		<-j.done
		j.fn, j.levelFn = nil, nil
		joinPool.Put(j)
		if m.tel != nil {
			m.tel.Walks.Coalesced(1)
		}
		return
	}
	// Leader: run own pass, then serve whoever queued meanwhile.
	c.running = true
	if c.fanFn == nil {
		c.fanFn = c.fanout
	}
	c.mu.Unlock()
	if infoFn != nil {
		m.EachInfo(infoFn)
	} else {
		m.EachLevel(levelFn)
	}
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		c.queue, c.batch = c.batch[:0], c.queue
		c.mu.Unlock()
		m.EachInfo(c.fanFn)
		for i, j := range c.batch {
			c.batch[i] = nil
			j.done <- struct{}{}
		}
	}
}

// fanout feeds one walked process to every consumer of the current
// batch. Bound to fanFn once so the batch pass allocates no closure.
func (c *walkCoalescer) fanout(info ProcessInfo) {
	for _, j := range c.batch {
		if j.fn != nil {
			j.fn(info)
		} else {
			j.levelFn(info.ID, info.Level)
		}
	}
}

// AppendShardInfos appends the ProcessInfo of every process currently
// bound in shard s (0 <= s < ShardCount), evaluated at now, to dst and
// returns the extended slice (unsorted). It is the paged counterpart of
// EachInfo — the /v1/metrics scrape walks shards [cursor, cursor+k) per
// page — and reads entirely from published snapshots: no shard lock
// beyond the two-field span capture, no entry locks, no allocations
// beyond dst growth. It deliberately does not go through the coalescer:
// scrape pages interleave per-process reads of the QoS estimator, whose
// lock a coalesced QoS sampling round holds while joined.
func (m *Monitor) AppendShardInfos(s int, now time.Time, dst []ProcessInfo) []ProcessInfo {
	if s < 0 || s >= len(m.shards) {
		return dst
	}
	walkShard(&m.shards[s], now, func(meta *entryMeta, lvl core.Level, last int64) {
		dst = append(dst, meta.info(lvl, last))
	})
	return dst
}
