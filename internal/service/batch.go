package service

import (
	"slices"
	"sync"

	"accrual/internal/core"
)

// batchRef is one heartbeat of a batch with its precomputed id hash and,
// once resolved, its registry slot handle (entry + binding identity).
// Hashing up front means the sort comparator and the shard grouping
// never re-hash, and the resolved handle lets one registry probe serve
// both the staleness report and the telemetry stripe.
type batchRef struct {
	h    uint32
	meta *entryMeta
	e    *entry
	hb   core.Heartbeat
}

var batchRefPool = sync.Pool{
	New: func() any {
		s := make([]batchRef, 0, 256)
		return &s
	},
}

// HeartbeatBatch ingests a batch of heartbeats, acquiring each registry
// shard lock once per batch instead of once per beat: the beats are
// stably sorted by shard (stable, so one process's beats keep their
// arrival order) and each run of same-shard beats is resolved under a
// single read-lock acquisition. Auto-registration of unseen senders
// costs that shard one extra write acquisition for the whole run — still
// O(shards touched), never O(beats).
//
// It returns how many beats were accepted and how many rejected
// (unknown process with auto-registration off); unlike Heartbeat, a
// rejection does not abort the rest of the batch. The steady-state path
// (all senders known) performs zero allocations.
func (m *Monitor) HeartbeatBatch(beats []core.Heartbeat) (accepted, rejected int) {
	switch len(beats) {
	case 0:
		return 0, 0
	case 1:
		// No grouping to amortise; take the single-beat path and its
		// exact error semantics.
		if err := m.Heartbeat(beats[0]); err != nil {
			return 0, 1
		}
		return 1, 0
	}
	refsP := batchRefPool.Get().(*[]batchRef)
	refs := (*refsP)[:0]
	for _, hb := range beats {
		refs = append(refs, batchRef{h: fnv1a(hb.From), hb: hb})
	}
	mask := m.shardMask
	slices.SortStableFunc(refs, func(a, b batchRef) int {
		return int(a.h&mask) - int(b.h&mask)
	})
	for start := 0; start < len(refs); {
		end := start + 1
		si := refs[start].h & mask
		for end < len(refs) && refs[end].h&mask == si {
			end++
		}
		acc, rej := m.ingestShardRun(si, refs[start:end])
		accepted += acc
		rejected += rej
		start = end
	}
	clear(refs) // drop entry and heartbeat references before pooling
	*refsP = refs[:0]
	batchRefPool.Put(refsP)
	return accepted, rejected
}

// ingestShardRun ingests one same-shard run of a batch. Entry resolution
// takes the shard read lock exactly once; only a run containing unseen
// senders pays one additional write acquisition to register them all.
func (m *Monitor) ingestShardRun(si uint32, refs []batchRef) (accepted, rejected int) {
	sh := &m.shards[si]
	m.noteShardLock(si, false)
	sh.mu.RLock()
	missing := 0
	for i := range refs {
		if refs[i].e, refs[i].meta = sh.get(refs[i].hb.From); refs[i].e == nil {
			missing++
		}
	}
	sh.mu.RUnlock()
	if missing > 0 && m.autoRegister {
		m.noteShardLock(si, true)
		sh.mu.Lock()
		for i := range refs {
			if refs[i].e != nil {
				continue
			}
			e, meta := sh.get(refs[i].hb.From)
			if e == nil {
				start := refs[i].hb.Arrived
				if start.IsZero() {
					start = m.clk.Now()
				}
				id := m.ids.InternString(refs[i].hb.From)
				e, meta = sh.bind(id, m.factory(id, start), m.groupOf(id), start)
				if m.tel != nil {
					m.tel.Counters.Registered(refs[i].h)
				}
			}
			// Resolve every later beat of the same (newly present) id so
			// the loop registers each unseen sender once.
			id := refs[i].hb.From
			for j := i; j < len(refs); j++ {
				if refs[j].e == nil && refs[j].hb.From == id {
					refs[j].e, refs[j].meta = e, meta
				}
			}
		}
		sh.mu.Unlock()
	}
	for i := range refs {
		if refs[i].e == nil {
			rejected++
			continue
		}
		// A binding mismatch (process deregistered after resolution)
		// drops the beat but still counts it accepted: the registry took
		// it, its target vanished — the same outcome the pre-slab
		// registry gave a racing orphaned entry.
		stale, ok := refs[i].e.report(refs[i].meta, refs[i].hb)
		if ok && m.tel != nil {
			m.tel.Counters.Heartbeat(refs[i].h, stale)
		}
		accepted++
	}
	return accepted, rejected
}

// noteShardLock is the test seam for the lock-amortisation contract:
// tests install onShardLock to count how often a batch touches each
// shard lock. It is nil outside tests and costs one predictable branch.
func (m *Monitor) noteShardLock(si uint32, write bool) {
	if m.onShardLock != nil {
		m.onShardLock(si, write)
	}
}
