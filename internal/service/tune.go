package service

import (
	"errors"

	"accrual/internal/core"
)

// tuneInfo reads the detector's tunable state under the entry lock.
// retunable is false when the bound detector does not implement
// core.Retunable; ok is false when the slot no longer holds the binding
// identified by meta.
func (e *entry) tuneInfo(meta *entryMeta) (info core.TuneInfo, retunable, ok bool) {
	e.mu.Lock()
	if e.meta.Load() != meta {
		e.mu.Unlock()
		return core.TuneInfo{}, false, false
	}
	if r, is := e.det.(core.Retunable); is {
		info, retunable = r.TuneInfo(), true
	}
	e.mu.Unlock()
	return info, retunable, true
}

// retune applies a tuning under the entry lock and republishes the eval
// snapshot in the same critical section, so a concurrent lock-free walk
// sees either the pre-tune or the post-tune parameters — never a mix.
// applied is false when the detector is not retunable; ok is false when
// the slot no longer holds the binding identified by meta.
func (e *entry) retuneBy(meta *entryMeta, t core.Tuning) (applied, ok bool, err error) {
	e.mu.Lock()
	if e.meta.Load() != meta {
		e.mu.Unlock()
		return false, false, nil
	}
	if r, is := e.det.(core.Retunable); is {
		err = r.Retune(t)
		applied = err == nil
	}
	if applied {
		e.publishEval(nil, false)
	}
	e.mu.Unlock()
	return applied, true, err
}

// TuneProcess pairs a process id and group with its detector's tunable
// state, as yielded by EachTuneInfo.
type TuneProcess struct {
	ID    string
	Group string
	Info  core.TuneInfo
}

// EachTuneInfo calls fn with every monitored process whose detector
// implements core.Retunable — the autotuner's measurement pass. It
// iterates the slab arrays directly like EachLevel; the per-entry lock
// is still taken (TuneInfo reads live estimator state the snapshots do
// not carry), but no shard lock is held beyond the span capture and no
// scratch is allocated. Processes bound to non-retunable detectors are
// skipped silently — the autotuner tunes the fleet it can and leaves
// the rest alone.
func (m *Monitor) EachTuneInfo(fn func(p TuneProcess)) {
	for i := range m.shards {
		m.shards[i].eachSlot(func(e *entry) {
			meta := e.meta.Load()
			if meta == nil {
				return
			}
			if info, retunable, ok := e.tuneInfo(meta); ok && retunable {
				fn(TuneProcess{ID: meta.id, Group: meta.group, Info: info})
			}
		})
	}
}

// Retune applies one tuning to every retunable detector in the
// registry. It returns how many detectors were retuned and how many
// were skipped (not retunable, or rebound mid-walk); err joins any
// per-detector rejections (the rest of the fleet is still retuned —
// a partially applied round is reported, not rolled back). Each applied
// tuning republishes that entry's eval snapshot atomically, so
// concurrent lock-free walks never observe a mixed state. The walk
// allocates nothing when every detector accepts the tuning.
func (m *Monitor) Retune(t core.Tuning) (tuned, skipped int, err error) {
	for i := range m.shards {
		m.shards[i].eachSlot(func(e *entry) {
			meta := e.meta.Load()
			if meta == nil {
				return
			}
			applied, ok, rerr := e.retuneBy(meta, t)
			switch {
			case rerr != nil:
				err = errors.Join(err, rerr)
			case ok && applied:
				tuned++
			default:
				skipped++
			}
		})
	}
	return tuned, skipped, err
}
