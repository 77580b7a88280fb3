package serve

import (
	"testing"
	"time"
)

// TestFinishedResultNotHeldBehindPending parks one shard and checks that
// an earlier request's result, served by the other shard, reaches the
// client while the parked request is still pending: the connection
// writer must flush a finished result before it waits on an unfinished
// one, not only when its queue runs empty.
func TestFinishedResultNotHeldBehindPending(t *testing.T) {
	s := startTestServer(t, 2, "")
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Park each shard on a stats reply nobody reads yet. Released shards
	// stay released; the deferred releases unblock a failed run before
	// the server closes.
	var parked [2]chan ShardStats
	var released [2]bool
	release := func(i int) {
		if !released[i] {
			<-parked[i]
			released[i] = true
		}
	}
	for i := range parked {
		parked[i] = make(chan ShardStats)
		s.shards[i].mailbox <- shardMsg{snap: parked[i]}
		defer release(i)
	}
	waitFor("both shards to park", func() bool {
		return len(s.shards[0].mailbox) == 0 && len(s.shards[1].mailbox) == 0
	})
	onShard := func(shard int) []Event {
		for pc := uint64(4); ; pc += 4 {
			if ShardOf(pc, 2) == shard {
				return []Event{{PC: pc, Value: 1}}
			}
		}
	}
	// A on shard 0, then B and C on shard 1. C reaches shard 1's mailbox
	// only after B is queued for the writer behind A, so once A finishes
	// the writer has B, unfinished, next in line.
	for _, evs := range [][]Event{onShard(0), onShard(1), onShard(1)} {
		if err := c.Send(evs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor("B and C to reach shard 1", func() bool { return len(s.shards[1].mailbox) == 2 })
	release(0)
	if err := c.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Recv()
	if err != nil {
		t.Fatalf("finished result held back while a later request is pending: %v", err)
	}
	if r.Events != 1 {
		t.Fatalf("first result tallied %d events, want 1", r.Events)
	}
	release(1)
	for i := 0; i < 2; i++ {
		if r, err := c.Recv(); err != nil || r.Events != 1 {
			t.Fatalf("result %d after release: %+v, %v", i+2, r, err)
		}
	}
}
