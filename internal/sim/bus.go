package sim

import (
	"fmt"
	"time"
)

// Topic partitions bus traffic by subsystem.
type Topic string

// The engine's topics. Scenarios may publish additional ad-hoc topics;
// subscribers see every topic and filter on Event.Topic.
const (
	// TopicROA: ground-truth VRP state changed (issue/revoke).
	TopicROA Topic = "roa"
	// TopicBGP: a route was announced or withdrawn (incl. hijacks).
	TopicBGP Topic = "bgp"
	// TopicRTR: the cache flushed a new serial or restarted its session.
	TopicRTR Topic = "rtr"
	// TopicRP: a relying party refreshed and revalidated.
	TopicRP Topic = "rp"
	// TopicDNS: the web world's DNS was mutated (e.g. CDN migration).
	TopicDNS Topic = "dns"
	// TopicSample: the probe recorded a time-series row.
	TopicSample Topic = "sample"
)

// Event is one bus message: what happened, when (virtual time), and a
// human-readable detail line. Data optionally carries a typed payload
// for programmatic subscribers; it is excluded from serialised output.
type Event struct {
	Topic  Topic         `json:"topic"`
	T      time.Duration `json:"t"`
	Detail string        `json:"detail"`
	Data   any           `json:"-"`
}

// String renders the event as a log line.
func (e Event) String() string {
	return fmt.Sprintf("[%8s] %-6s %s", e.T, e.Topic, e.Detail)
}

// Bus is a synchronous pub/sub event bus. Publish delivers to
// subscribers in subscription order, on the publisher's goroutine —
// deterministic by construction. The engine owns it on the simulation
// goroutine; subscribers must not block.
type Bus struct {
	subs []func(Event)
}

// NewBus creates an empty bus.
func NewBus() *Bus { return &Bus{} }

// SubscribeAll registers fn for every topic.
func (b *Bus) SubscribeAll(fn func(Event)) {
	b.subs = append(b.subs, fn)
}

// Publish delivers the event synchronously.
func (b *Bus) Publish(e Event) {
	for _, fn := range b.subs {
		fn(e)
	}
}
