package shard_test

import (
	"context"
	"fmt"
	"testing"
)

// TestWriteAfterShardRestart: a shard's pooled connections die while
// they sit idle — the shard restarted — and nothing is reading them to
// notice. The next write has to find out before it is sent, because a
// write that fails on the wire cannot be retried: it must redial and
// succeed, not answer shard_down for a shard that is up.
func TestWriteAfterShardRestart(t *testing.T) {
	r, c, proxy := proxiedCluster(t)
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil {
		t.Fatal(err)
	}
	victim := shardUser(t, r, c, 1)
	insert := func(iid int) error {
		_, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO ratings VALUES (%d, %d, 3.0)", victim, iid))
		return err
	}
	if err := insert(1); err != nil {
		t.Fatal(err)
	}
	for round := 2; round < 6; round++ {
		proxy.kill()
		proxy.revive()
		if err := insert(round); err != nil {
			t.Fatalf("write after restart %d: %v", round-1, err)
		}
	}
	rows, err := c.Query(ctx, fmt.Sprintf("SELECT iid FROM ratings WHERE uid = %d", victim))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 {
		t.Fatalf("%d rows after 5 acknowledged writes", rows.Len())
	}
}
