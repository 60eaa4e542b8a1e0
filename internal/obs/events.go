package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventType classifies a structured control-plane event.
type EventType uint8

const (
	evInvalid EventType = iota
	// EvEpochPublish: a new model generation was installed on the engine.
	EvEpochPublish
	// EvManualRollback: an operator (or state restore) re-installed the
	// displaced generation.
	EvManualRollback
	// EvCanaryRollback: the canary judge auto-rolled back an epoch whose
	// fleet fault rate exceeded threshold.
	EvCanaryRollback
	// EvShed: the engine refused a decision (queue bound or deadline).
	// Emitted throttled — the per-cause counters carry the volume.
	EvShed
	// EvSafeModeTrip: a handle's guard entered fallback.
	EvSafeModeTrip
	// EvSafeModeRecover: a handle's guard left fallback after a clean streak.
	EvSafeModeRecover
	// EvShardPanic: a model forward panicked inside a shard consumer.
	EvShardPanic
	// EvShardRestart: the watchdog restarted a crashed shard consumer.
	EvShardRestart
	// EvFailover: a serve client fell back to its local AIMD controller.
	EvFailover
	// EvResync: a serve client re-established daemon-served decisions.
	EvResync
)

var eventNames = [...]string{
	evInvalid:         "invalid",
	EvEpochPublish:    "epoch_publish",
	EvManualRollback:  "manual_rollback",
	EvCanaryRollback:  "canary_rollback",
	EvShed:            "shed",
	EvSafeModeTrip:    "safemode_trip",
	EvSafeModeRecover: "safemode_recover",
	EvShardPanic:      "shard_panic",
	EvShardRestart:    "shard_restart",
	EvFailover:        "failover",
	EvResync:          "resync",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// MarshalJSON renders the type as its string name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON parses the string name back into the type so clients
// can round-trip /events output.
func (t *EventType) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i, name := range eventNames {
		if name == s {
			*t = EventType(i)
			return nil
		}
	}
	*t = evInvalid
	return nil
}

// Event is one structured control-plane occurrence. Seq and Time are
// assigned by the log at emission.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Type  EventType `json:"type"`
	App   uint64    `json:"app,omitempty"`   // handle id, 0 when fleet-wide
	Epoch uint64    `json:"epoch,omitempty"` // model epoch in effect
	Msg   string    `json:"msg,omitempty"`   // human detail, rare paths only
}

// EventLog is a bounded ring of events with monotone sequence numbers
// and an optional subscription hook. Emission is mutex-guarded: events
// are control-plane rare (publishes, rollbacks, trips), and the one
// data-plane source — sheds — is throttled by the emitter. A nil
// *EventLog is a no-op.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // next sequence number; count emitted so far
	subs []func(Event)
}

// NewEventLog returns a ring holding the last n events (default 256).
func NewEventLog(n int) *EventLog {
	if n <= 0 {
		n = 256
	}
	return &EventLog{ring: make([]Event, n)}
}

// Emit stamps e with the next sequence number and the current time,
// stores it, and fires subscribers. Subscribers run under the log lock:
// they must be fast and must not emit events themselves.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e.Seq = l.next
	e.Time = time.Now()
	l.ring[l.next%uint64(len(l.ring))] = e
	l.next++
	subs := l.subs
	l.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
}

// Subscribe registers fn to be called for every subsequent event. The
// callback runs synchronously on the emitting goroutine; keep it fast
// and never call back into the log from it.
func (l *EventLog) Subscribe(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	// Copy-on-write so Emit can fire callbacks outside the lock without
	// racing a concurrent Subscribe appending in place.
	subs := make([]func(Event), len(l.subs)+1)
	copy(subs, l.subs)
	subs[len(subs)-1] = fn
	l.subs = subs
	l.mu.Unlock()
}

// Tail returns up to n most recent events, oldest first.
func (l *EventLog) Tail(n int) []Event {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := uint64(len(l.ring))
	have := l.next
	if have > size {
		have = size
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, have)
	for i := uint64(0); i < have; i++ {
		out[i] = l.ring[(l.next-have+i)%size]
	}
	return out
}

// Seq returns the number of events emitted so far.
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Limiter rate-limits event emission from a data-plane path (sheds):
// Allow returns true at most once per gap. Safe for concurrent use; a
// nil *Limiter always refuses.
type Limiter struct {
	lastNs atomic.Int64
}

// Allow reports whether an event may be emitted now, and if so claims
// the slot.
func (t *Limiter) Allow(gap time.Duration) bool {
	if t == nil {
		return false
	}
	now := time.Now().UnixNano()
	last := t.lastNs.Load()
	if now-last < int64(gap) {
		return false
	}
	return t.lastNs.CompareAndSwap(last, now)
}
