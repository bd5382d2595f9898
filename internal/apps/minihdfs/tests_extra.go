package minihdfs

import (
	"bytes"
	"fmt"

	"zebraconf/internal/core/harness"
)

// extraTests are additional whole-system scenarios: concurrency, error
// paths, recreation, checkpoint cadence, multi-segment journals. They are
// appended to the registered suite.
func extraTests() []harness.UnitTest {
	return []harness.UnitTest{
		{Name: "TestConcurrentWriters", Run: testConcurrentWriters},
		{Name: "TestDeleteAndRecreate", Run: testDeleteAndRecreate},
		{Name: "TestReadMissingFile", Run: testReadMissingFile},
		{Name: "TestListingManyFiles", Run: testListingManyFiles},
		{Name: "TestPeriodicCheckpoint", Run: testPeriodicCheckpoint},
		{Name: "TestJournalMultiSegment", Run: testJournalMultiSegment},
		{Name: "TestReadAfterDataNodeLoss", Run: testReadAfterDataNodeLoss},
	}
}

// testConcurrentWriters writes several files concurrently from the unit
// test; all pipelines and NameNode bookkeeping must stay consistent.
func testConcurrentWriters(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	writers := t.Env.Scale.NewGroup(nil)
	errs := make(chan error, 6) // one send per writer
	for i := 0; i < 6; i++ {
		i := i
		writers.Go(func() {
			errs <- client.WriteFile(fmt.Sprintf("/conc-%d", i), testData(300+i))
		})
	}
	writers.Wait()
	close(errs)
	for err := range errs {
		t.NoErr(err, "concurrent write")
	}
	for i := 0; i < 6; i++ {
		got, err := client.ReadFile(fmt.Sprintf("/conc-%d", i))
		t.NoErr(err, "read concurrent file")
		if len(got) != 300+i {
			t.Fatalf("file /conc-%d has %d bytes, want %d", i, len(got), 300+i)
		}
	}
}

// testDeleteAndRecreate recreates a deleted path with new content.
func testDeleteAndRecreate(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	t.NoErr(client.WriteFile("/cycle", testData(200)), "first write")
	t.NoErr(client.Delete("/cycle"), "delete")
	fresh := testData(350)
	t.NoErr(client.WriteFile("/cycle", fresh), "recreate")
	got, err := client.ReadFile("/cycle")
	t.NoErr(err, "read recreated file")
	if !bytes.Equal(got, fresh) {
		t.Fatalf("recreated file has stale content (%d bytes)", len(got))
	}
}

// testReadMissingFile checks the error path for absent files and double
// deletes.
func testReadMissingFile(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	if _, err := client.ReadFile("/ghost"); err == nil {
		t.Fatalf("reading a missing file succeeded")
	}
	if err := client.Delete("/ghost"); err == nil {
		t.Fatalf("deleting a missing file succeeded")
	}
}

// testListingManyFiles lists a directory with a two-digit population.
func testListingManyFiles(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	t.NoErr(client.Mkdir("/many"), "mkdir /many")
	const n = 12
	for i := 0; i < n; i++ {
		t.NoErr(client.WriteFile(fmt.Sprintf("/many/f-%02d", i), testData(64)), "write listing file")
	}
	names, err := client.List("/many")
	t.NoErr(err, "list /many")
	if len(names) != n {
		t.Fatalf("listing returned %d names, want %d", len(names), n)
	}
	for i, name := range names {
		if want := fmt.Sprintf("f-%02d", i); name != want {
			t.Fatalf("listing[%d] = %q, want %q (sorted)", i, name, want)
		}
	}
}

// testPeriodicCheckpoint lowers the checkpoint period on the test's own
// configuration and expects the SecondaryNameNode loop to produce
// checkpoints without being asked.
func testPeriodicCheckpoint(t *harness.T) {
	conf := t.Env.RT.NewConf()
	conf.SetInt(ParamCheckpointPeriod, 60)
	c, _, _ := startClusterWith(t, conf, ClusterOptions{DataNodes: 1, WithSecondary: true})
	deadline := t.Env.Scale.Now() + 40*conf.GetTicks(ParamCheckpointPeriod)
	for c.SNN.Checkpoints() < 2 {
		if t.Env.Scale.Now() > deadline {
			t.Fatalf("secondary produced %d checkpoints within %d periods, want >= 2",
				c.SNN.Checkpoints(), 40)
		}
		t.Env.Scale.Sleep(20)
	}
}

// testJournalMultiSegment finalizes several segments and tails across them.
func testJournalMultiSegment(t *harness.T) {
	c, _, conf := startCluster(t, ClusterOptions{DataNodes: 1, WithJournal: true})
	_ = c
	tailer, err := NewStandbyTailer(t.Env, conf, JNAddr)
	t.NoErr(err, "create tailer")

	jn := c.JN
	total := 0
	for seg := int64(0); seg < 3; seg++ {
		edits := []string{fmt.Sprintf("op-%d-a", seg), fmt.Sprintf("op-%d-b", seg)}
		if err := jn.journal(&JournalReq{SegmentID: seg, Edits: edits}); err != nil {
			t.Fatalf("journal segment %d: %v", seg, err)
		}
		if err := jn.finalizeSegment(&SegmentReq{SegmentID: seg}); err != nil {
			t.Fatalf("finalize segment %d: %v", seg, err)
		}
		total += len(edits)
	}
	edits, err := tailer.Tail(0)
	t.NoErr(err, "tail finalized segments")
	if len(edits) != total {
		t.Fatalf("tailed %d edits, want %d", len(edits), total)
	}
	// Tail resumes mid-stream.
	rest, err := tailer.Tail(3)
	t.NoErr(err, "tail from txn 3")
	if len(rest) != total-3 {
		t.Fatalf("resumed tail returned %d edits, want %d", len(rest), total-3)
	}
}

// testReadAfterDataNodeLoss writes with replication 2 and reads after one
// replica holder stops: the surviving replica serves the read.
func testReadAfterDataNodeLoss(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	if conf.GetInt(ParamReplication) < 2 {
		// Under a replication assignment of 1 there is no redundancy to
		// test; the scenario degenerates and trivially passes.
		return
	}
	data := testData(500)
	t.NoErr(client.WriteFile("/durable", data), "write /durable")
	if _, err := c.WaitReplicas(client, 2, 300); err != nil {
		t.Fatalf("replicas: %v", err)
	}
	c.DNs[0].Stop()
	// The NameNode may still list the dead node briefly; the client reads
	// from whichever replica is reachable.
	deadline := t.Env.Scale.Now() + 2000
	for {
		got, err := client.ReadFile("/durable")
		if err == nil && bytes.Equal(got, data) {
			return
		}
		if t.Env.Scale.Now() > deadline {
			t.Fatalf("read after datanode loss: %v", err)
		}
		t.Env.Scale.Sleep(50)
	}
}
