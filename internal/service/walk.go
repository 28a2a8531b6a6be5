package service

import (
	"time"

	"accrual/internal/core"
)

// This file holds the full-registry read primitive of the lock-free
// evaluation plane. The published snapshots (see entry in service.go)
// make a full-registry read a pure array scan: walkShard is that scan,
// and every fleet read — EachLevel, EachInfo, AppendShardInfos, TopK,
// RankedAppend and Snapshot — is a thin caller of it.

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
// its level and the time since its last arrival, all from one
// consistent read of the cell, so a slot rebound mid-walk is skipped or
// attributed to exactly one binding, never mixed. The age is measured
// on the EvalNanos timeline like the level, so a wall-clock step moves
// neither.
func walkShard(sh *shard, now time.Time, fn func(meta *entryMeta, lvl core.Level, age time.Duration)) {
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
		fn(meta, lvl, time.Duration(nowNs-last))
	})
}

// AppendShardInfos appends the ProcessInfo of every process currently
// bound in shard s (0 <= s < ShardCount), evaluated at now, to dst and
// returns the extended slice (unsorted). It is the paged counterpart of
// EachInfo — the /v1/metrics scrape walks shards [cursor, cursor+k) per
// page — and reads entirely from published snapshots: no shard lock
// beyond the two-field span capture, no entry locks, no allocations
// beyond dst growth.
func (m *Monitor) AppendShardInfos(s int, now time.Time, dst []ProcessInfo) []ProcessInfo {
	if s < 0 || s >= len(m.shards) {
		return dst
	}
	walkShard(&m.shards[s], now, func(meta *entryMeta, lvl core.Level, age time.Duration) {
		dst = append(dst, meta.info(lvl, now, age))
	})
	return dst
}
