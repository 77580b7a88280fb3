package serve

import (
	"fmt"
	"testing"
)

// TestClientSteadyStateZeroAlloc pins the serving hot path's steady
// state end to end: once the client's send and receive scratch, the
// server's decode scratch and its pooled request arrays have grown to
// the workload's batch size, a synchronous send → flush → receive round
// trip allocates nothing. testing.AllocsPerRun reads the process-wide
// malloc count, so this gates both sides of every round trip: the
// client's encode and decode, and the server's decode → dispatch → shard
// step → reply path. It runs with two shards and with one, which has no
// path of its own.
func TestClientSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, shards := range []int{2, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0", ""); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			roundTripZeroAlloc(t, s)
		})
	}
}

// roundTripZeroAlloc warms one connection to s, then fails if a
// steady-state round trip allocates.
func roundTripZeroAlloc(t *testing.T, s *Server) {
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const batch = 512
	evs := make([]Event, batch)
	fill := func(base int) {
		for j := range evs {
			evs[j] = Event{PC: uint64((base + j) % 64 * 4), Value: uint64((base + j) % 7)}
		}
	}
	var res BatchResult
	roundTrip := func(base int) {
		fill(base)
		if err := c.Send(evs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.RecvInto(&res); err != nil {
			t.Fatal(err)
		}
		if res.Events != batch {
			t.Fatalf("server tallied %d events, want %d", res.Events, batch)
		}
	}
	for i := 0; i < 8; i++ { // warm client scratch and server tables
		roundTrip(i * batch)
	}
	i := 8
	allocs := testing.AllocsPerRun(50, func() {
		roundTrip(i * batch)
		i++
	})
	if allocs != 0 {
		t.Fatalf("round trip allocates %.1f allocs in steady state", allocs)
	}
}
