package sim

import (
	"reflect"
	"testing"
	"time"
)

func TestQueueOrdersByTimeClassSeq(t *testing.T) {
	q := NewQueue()
	base := time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)
	var got []string
	add := func(at time.Time, class int, label string) {
		q.At(at, class, func() { got = append(got, label) })
	}
	// Same instant: class orders, then scheduling sequence.
	add(base, classProbe, "probe")
	add(base, classScenario, "scenario-1")
	add(base, classFlush, "flush")
	add(base, classScenario, "scenario-2")
	add(base, classRefresh, "refresh")
	// Earlier instant beats everything regardless of class.
	add(base.Add(-time.Second), classProbe, "early")
	// Later instant is not due yet.
	add(base.Add(time.Hour), classScenario, "late")

	ran := q.RunDue(base)
	want := []string{"early", "scenario-1", "scenario-2", "flush", "refresh", "probe"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if ran != len(want) {
		t.Errorf("ran = %d, want %d", ran, len(want))
	}
	if q.Len() != 1 {
		t.Errorf("pending = %d, want 1", q.Len())
	}
	if at := q.h[0].at; !at.Equal(base.Add(time.Hour)) {
		t.Errorf("next event at %v, want %v", at, base.Add(time.Hour))
	}
}

func TestQueueEventsMayScheduleSameInstant(t *testing.T) {
	q := NewQueue()
	base := time.Date(2015, 7, 1, 0, 0, 0, 0, time.UTC)
	var got []string
	q.At(base, classScenario, func() {
		got = append(got, "a")
		q.At(base, classScenario, func() { got = append(got, "b") })
	})
	q.RunDue(base)
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestBusDelivery(t *testing.T) {
	b := NewBus()
	var got []string
	b.SubscribeAll(func(e Event) {
		if e.Topic == TopicROA {
			got = append(got, "roa:"+e.Detail)
		}
	})
	b.SubscribeAll(func(e Event) { got = append(got, "all:"+e.Detail) })

	b.Publish(Event{Topic: TopicROA, Detail: "x"})
	b.Publish(Event{Topic: TopicBGP, Detail: "y"}) // only the catch-all sees it

	want := []string{"roa:x", "all:x", "all:y"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivery = %v, want %v", got, want)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Topic: TopicRTR, T: 90 * time.Second, Detail: "flush serial=3"}
	if s := e.String(); s == "" || s[0] != '[' {
		t.Errorf("String() = %q", s)
	}
}
