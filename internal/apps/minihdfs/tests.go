package minihdfs

import (
	"bytes"
	"fmt"
	"strings"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/simtime"
)

// App returns the minihdfs application descriptor: its schema, node types,
// instrumentation stats (Table 4 analog), and the whole-system unit-test
// suite ZebraConf reuses.
func App() *harness.App {
	return &harness.App{
		Name:      "minihdfs",
		Schema:    schema,
		NodeTypes: []string{TypeNameNode, TypeDataNode, TypeSecondaryNN, TypeJournalNode, TypeBalancer, TypeMover},
		// NodeLines counts the StartInit/StopInit/RefToClone annotations in
		// the five node constructors; ConfLines counts the hook call sites
		// in the configuration class (shared via confkit).
		Annotations: harness.AnnotationStats{NodeLines: 15, ConfLines: 6},
		Tests:       testSuite(),
	}
}

// testData builds a deterministic payload.
func testData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 251)
	}
	return data
}

// testSuite assembles the registered unit tests. The mix is deliberate:
// whole-system tests (which ZebraConf can use), function-level tests (which
// the pre-run filters out because they start no nodes), false-positive
// traps, and nondeterministic tests (which hypothesis testing filters).
func testSuite() []harness.UnitTest {
	tests := []harness.UnitTest{
		{Name: "TestWriteRead", Run: testWriteRead},
		{Name: "TestWriteReadMultiBlock", Run: testWriteReadMultiBlock},
		{Name: "TestAppendReadBack", Run: testAppendReadBack},
		{Name: "TestPipelineReplication", Run: testPipelineReplication},
		{Name: "TestMkdirList", Run: testMkdirList},
		{Name: "TestMaxComponentLength", Run: testMaxComponentLength},
		{Name: "TestMaxDirectoryItems", Run: testMaxDirectoryItems},
		{Name: "TestDeleteVisibility", Run: testDeleteVisibility},
		{Name: "TestHeartbeatLiveness", Run: testHeartbeatLiveness},
		{Name: "TestDeadDataNodeDetection", Run: testDeadDataNodeDetection},
		{Name: "TestStaleDataNodeDetection", Run: testStaleDataNodeDetection},
		{Name: "TestDUReservedAccounting", Run: testDUReservedAccounting},
		{Name: "TestCorruptBlockListing", Run: testCorruptBlockListing},
		{Name: "TestSnapshotDiffDescendant", Run: testSnapshotDiffDescendant},
		{Name: "TestSnapshotDiffRoot", Run: testSnapshotDiffRoot},
		{Name: "TestReplaceDatanodeOnFailure", Run: testReplaceDatanodeOnFailure},
		{Name: "TestFsck", Run: testFsck},
		{Name: "TestSaveNamespace", Run: testSaveNamespace},
		{Name: "TestSlowReadKeepalive", Run: testSlowReadKeepalive},
		{Name: "TestBalancerBasic", Run: testBalancerBasic},
		{Name: "TestBalancerBandwidth", Run: testBalancerBandwidth},
		{Name: "TestBalancerUpgradeDomain", Run: testBalancerUpgradeDomain},
		{Name: "TestMoverColdMigration", Run: testMoverColdMigration},
		{Name: "TestCheckpoint", Run: testCheckpoint},
		{Name: "TestImageComparison", Run: testImageComparison},
		{Name: "TestScanPeriodInternals", Run: testScanPeriodInternals},
		{Name: "TestReplWorkInternals", Run: testReplWorkInternals},
		{Name: "TestEditTailing", Run: testEditTailing},
		{Name: "TestSharedIPCHeartbeat", Run: testSharedIPCHeartbeat},
		{Name: "TestSharedIPCFixed", Run: testSharedIPCFixed},
		{Name: "TestFlakyLeaseRecovery", Run: testFlakyLeaseRecovery},
		{Name: "TestFlakyDecommission", Run: testFlakyDecommission},
	}
	tests = append(tests, extraTests()...)
	return append(tests, functionLevelTests()...)
}

// startCluster is the common test prologue: a fresh configuration object
// created by the test itself (paper Fig. 2d line 2) shared across the whole
// cluster.
func startCluster(t *harness.T, opts ClusterOptions) (*Cluster, *Client, *confkit.Conf) {
	conf := t.Env.RT.NewConf()
	return startClusterWith(t, conf, opts)
}

func startClusterWith(t *harness.T, conf *confkit.Conf, opts ClusterOptions) (*Cluster, *Client, *confkit.Conf) {
	c, err := StartCluster(t.Env, conf, opts)
	t.NoErr(err, "start cluster")
	client, err := c.Client(conf)
	t.NoErr(err, "create client")
	t.NoErr(c.WaitActive(client, c.ActiveDeadline(conf)), "wait cluster active")
	return c, client, conf
}

func testWriteRead(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	data := testData(1000)
	t.NoErr(client.WriteFile("/f", data), "write /f")
	got, err := client.ReadFile("/f")
	t.NoErr(err, "read /f")
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, want %d identical bytes", len(got), len(data))
	}
}

func testWriteReadMultiBlock(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	data := testData(int(3*conf.GetInt(ParamBlockSize) + 100))
	t.NoErr(client.WriteFile("/multi", data), "write /multi")
	got, err := client.ReadFile("/multi")
	t.NoErr(err, "read /multi")
	if !bytes.Equal(got, data) {
		t.Fatalf("multi-block read mismatch: got %d bytes, want %d", len(got), len(data))
	}
}

// testAppendReadBack appends to a completed file; the appended blocks go
// through the same checksummed pipeline.
func testAppendReadBack(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	first := testData(600)
	t.NoErr(client.WriteFile("/app", first), "write /app")
	second := testData(500)
	t.NoErr(client.Append("/app", second), "append to /app")
	got, err := client.ReadFile("/app")
	t.NoErr(err, "read /app after append")
	if len(got) != len(first)+len(second) {
		t.Fatalf("appended file is %d bytes, want %d", len(got), len(first)+len(second))
	}
	if !bytes.Equal(got[:len(first)], first) || !bytes.Equal(got[len(first):], second) {
		t.Fatalf("appended content corrupted")
	}
	if err := client.Append("/missing", second); err == nil {
		t.Fatalf("append to a missing file succeeded")
	}
}

func testPipelineReplication(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 3})
	data := testData(800)
	t.NoErr(client.WriteFile("/repl", data), "write /repl")
	want := int(conf.GetInt(ParamReplication))
	if want > 3 {
		want = 3
	}
	got, err := c.WaitReplicas(client, want, 300)
	if err != nil {
		t.Fatalf("replication pipeline: %d replicas, want %d: %v", got, want, err)
	}
}

func testMkdirList(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	t.NoErr(client.Mkdir("/dir"), "mkdir /dir")
	t.NoErr(client.Mkdir("/dir/sub"), "mkdir /dir/sub")
	t.NoErr(client.WriteFile("/dir/f", testData(100)), "write /dir/f")
	names, err := client.List("/dir")
	t.NoErr(err, "list /dir")
	if len(names) != 2 || names[0] != "f" || names[1] != "sub" {
		t.Fatalf("list /dir = %v, want [f sub]", names)
	}
}

// testMaxComponentLength creates a directory whose name length is exactly
// the limit the CLIENT's configuration declares valid; the NameNode
// enforces its own limit (Table 3).
func testMaxComponentLength(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 1})
	limit := conf.GetInt(ParamMaxComponentLength)
	if limit < 1 || limit > 100000 {
		t.Fatalf("implausible %s: %d", ParamMaxComponentLength, limit)
	}
	name := "/" + strings.Repeat("a", int(limit))
	t.NoErr(client.Mkdir(name), "mkdir at the configured component-length boundary")
}

// testMaxDirectoryItems fills a directory up to the CLIENT's configured
// limit; the NameNode enforces its own (Table 3).
func testMaxDirectoryItems(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 1})
	limit := int(conf.GetInt(ParamMaxDirectoryItems))
	if limit < 1 || limit > 5000 {
		t.Fatalf("implausible %s: %d", ParamMaxDirectoryItems, limit)
	}
	t.NoErr(client.Mkdir("/bulk"), "mkdir /bulk")
	for i := 0; i < limit; i++ {
		if err := client.Mkdir(fmt.Sprintf("/bulk/item-%04d", i)); err != nil {
			t.Fatalf("mkdir item %d of %d (the client-configured directory limit): %v", i+1, limit, err)
		}
	}
}

// testDeleteVisibility deletes a file and expects the replica count to
// reach zero within the window the CLIENT's configuration implies; a
// DataNode with a longer incremental-report interval breaks the
// expectation through the public stats API (Table 3).
func testDeleteVisibility(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	t.NoErr(client.WriteFile("/doomed", testData(400)), "write /doomed")
	repl := int(conf.GetInt(ParamReplication))
	if repl > 2 {
		repl = 2
	}
	if _, err := c.WaitReplicas(client, repl, 300); err != nil {
		t.Fatalf("replicas before delete: %v", err)
	}
	t.NoErr(client.Delete("/doomed"), "delete /doomed")
	wait := conf.GetTicks(ParamIncrementalBRIntvl) + 10*conf.GetTicks(ParamHeartbeatInterval) + 60
	if got, err := c.WaitReplicas(client, 0, wait); err != nil {
		t.Fatalf("deleted file still has %d replicas after the configured reporting window (%d ticks): %v",
			got, wait, err)
	}
}

// testHeartbeatLiveness asserts that healthy DataNodes stay live through a
// window derived from the CLIENT's liveness settings (Table 3:
// dfs.heartbeat.interval).
func testHeartbeatLiveness(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	deadAfter := 2*conf.GetTicks(ParamRecheckInterval) + 10*conf.GetTicks(ParamHeartbeatInterval)
	// Observe continuously: a DataNode whose interval outlives the
	// NameNode's detection window flaps dead between its heartbeats, so a
	// single end-of-window sample could miss the false-dead phase.
	deadline := t.Env.Scale.Now() + 2*deadAfter
	for t.Env.Scale.Now() < deadline {
		stats, err := client.Stats()
		t.NoErr(err, "stats")
		if stats.DeadDNs != 0 || stats.LiveDNs != 2 {
			t.Fatalf("healthy cluster reports %d dead / %d live DataNodes, want 0/2", stats.DeadDNs, stats.LiveDNs)
		}
		t.Env.Scale.Sleep(25)
	}
}

// testDeadDataNodeDetection stops a DataNode and expects the NameNode to
// declare it dead within the window the CLIENT's configuration implies
// (Table 3: dfs.namenode.heartbeat.recheck-interval).
func testDeadDataNodeDetection(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	c.DNs[1].Stop()
	deadAfter := 2*conf.GetTicks(ParamRecheckInterval) + 10*conf.GetTicks(ParamHeartbeatInterval)
	t.Env.Scale.Sleep(deadAfter + deadAfter/2)
	stats, err := client.Stats()
	t.NoErr(err, "stats")
	if stats.DeadDNs != 1 {
		t.Fatalf("stopped DataNode: %d dead DataNodes after the configured detection window, want 1", stats.DeadDNs)
	}
}

// testStaleDataNodeDetection is the stale-interval analog (Table 3:
// dfs.namenode.stale.datanode.interval).
func testStaleDataNodeDetection(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	c.DNs[1].Stop()
	t.Env.Scale.Sleep(2 * conf.GetTicks(ParamStaleInterval))
	stats, err := client.Stats()
	t.NoErr(err, "stats")
	if stats.StaleDNs != 1 {
		t.Fatalf("silent DataNode: %d stale DataNodes after the configured stale window, want 1", stats.StaleDNs)
	}
}

// testDUReservedAccounting checks the public capacity accounting against
// the CLIENT's du.reserved expectation (Table 3: dfs.datanode.du.reserved).
func testDUReservedAccounting(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 2, Capacity: 50000})
	t.Env.Scale.Sleep(10 * conf.GetTicks(ParamHeartbeatInterval))
	stats, err := client.Stats()
	t.NoErr(err, "stats")
	wantRemaining := stats.CapacityTotal - 2*conf.GetInt(ParamDUReserved)
	if stats.Remaining != wantRemaining {
		t.Fatalf("remaining capacity %d, want %d (capacity %d minus the configured reserve on 2 DataNodes)",
			stats.Remaining, wantRemaining, stats.CapacityTotal)
	}
}

// testCorruptBlockListing reports bad blocks via the public client protocol
// and checks the listing length against the CLIENT's configured maximum
// (Table 3: dfs.namenode.max-corrupt-file-blocks-returned).
func testCorruptBlockListing(t *harness.T) {
	_, client, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	var all []int64
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/corrupt-%d", i)
		t.NoErr(client.WriteFile(path, testData(200)), "write corrupt candidate")
		ids, err := client.BlockIDs(path)
		t.NoErr(err, "block ids")
		all = append(all, ids...)
	}
	t.NoErr(client.ReportBadBlocks(all), "report bad blocks")
	resp, err := client.ListCorruptFileBlocks()
	t.NoErr(err, "list corrupt blocks")
	want := int64(len(all))
	if max := conf.GetInt(ParamMaxCorruptReturned); max > 0 && max < want {
		want = max
	}
	if int64(len(resp.BlockIDs)) != want {
		t.Fatalf("corrupt listing returned %d blocks, want %d under the configured maximum", len(resp.BlockIDs), want)
	}
}

func testSnapshotDiffDescendant(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	t.NoErr(client.Mkdir("/dir"), "mkdir /dir")
	t.NoErr(client.Mkdir("/dir/sub"), "mkdir /dir/sub")
	t.NoErr(client.WriteFile("/dir/sub/f1", testData(100)), "write f1")
	t.NoErr(client.CreateSnapshot("/dir", "s1"), "snapshot /dir")
	t.NoErr(client.WriteFile("/dir/sub/f2", testData(100)), "write f2")
	diff, err := client.SnapshotDiff("/dir", "s1", "/dir/sub")
	t.NoErr(err, "snapshot diff on descendant")
	if len(diff) != 1 || diff[0] != "+/dir/sub/f2" {
		t.Fatalf("snapshot diff = %v, want [+/dir/sub/f2]", diff)
	}
}

func testSnapshotDiffRoot(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	t.NoErr(client.Mkdir("/snap"), "mkdir /snap")
	t.NoErr(client.CreateSnapshot("/snap", "before"), "snapshot")
	t.NoErr(client.WriteFile("/snap/new", testData(64)), "write new file")
	diff, err := client.SnapshotDiff("/snap", "before", "/snap")
	t.NoErr(err, "snapshot diff on root")
	if len(diff) != 1 || diff[0] != "+/snap/new" {
		t.Fatalf("root snapshot diff = %v, want [+/snap/new]", diff)
	}
}

// testReplaceDatanodeOnFailure kills the pipeline head and writes; the
// client's replace-datanode policy and the NameNode's must agree (Table 3).
func testReplaceDatanodeOnFailure(t *harness.T) {
	c, client, _ := startCluster(t, ClusterOptions{DataNodes: 3})
	c.DNs[0].Stop() // head of the next pipeline; the NameNode hasn't noticed yet
	data := testData(300)
	t.NoErr(client.WriteFile("/failover", data), "write through a failing pipeline")
	got, err := client.ReadFile("/failover")
	t.NoErr(err, "read after pipeline recovery")
	if !bytes.Equal(got, data) {
		t.Fatalf("post-recovery read mismatch: %d bytes", len(got))
	}
}

func testFsck(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	stats, err := client.Fsck()
	t.NoErr(err, "fsck via the NameNode web endpoint")
	if stats.LiveDNs != 1 {
		t.Fatalf("fsck reports %d live DataNodes, want 1", stats.LiveDNs)
	}
}

func testSaveNamespace(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 1})
	t.NoErr(client.WriteFile("/saved", testData(128)), "write /saved")
	img, err := client.SaveNamespace()
	t.NoErr(err, "saveNamespace (a slow admin RPC)")
	if len(img.Image) == 0 {
		t.Fatalf("saveNamespace returned an empty image")
	}
}

func testSlowReadKeepalive(t *harness.T) {
	conf := t.Env.RT.NewConf()
	// One large block makes the streaming read genuinely slow (~600 ticks),
	// so the DataNode's keepalive cadence — a third of ITS socket timeout —
	// must outpace the CLIENT's timeout (Table 3: dfs.client.socket-timeout).
	conf.SetInt(ParamBlockSize, 16384)
	c, client, _ := startClusterWith(t, conf, ClusterOptions{DataNodes: 1})
	_ = c
	data := testData(12000)
	t.NoErr(client.WriteFile("/slow", data), "write /slow")
	got, err := client.ReadFile("/slow")
	t.NoErr(err, "slow streaming read")
	if !bytes.Equal(got, data) {
		t.Fatalf("slow read mismatch: %d bytes", len(got))
	}
}

// testBalancerBasic fills one DataNode, adds an empty one, and requires the
// balancing round to finish promptly (the max.concurrent.moves case study:
// heterogeneous settings trip the 1100-tick congestion backoff on nearly
// every move, blowing the deadline roughly tenfold).
func testBalancerBasic(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 1})
	for i := 0; i < 16; i++ {
		t.NoErr(client.WriteFile(fmt.Sprintf("/bal-%02d", i), testData(1000)), "write balancing payload")
	}
	_, err := c.AddDataNode()
	t.NoErr(err, "add empty datanode")
	t.NoErr(c.WaitActive(client, c.ActiveDeadline(conf)), "wait for the new datanode")

	b, err := StartBalancer(t.Env, conf, "balancer", NNAddr)
	t.NoErr(err, "start balancer")
	t.Env.Defer(b.Stop)
	sw := simtime.NewStopwatch(t.Env.Scale)
	t.NoErr(b.Run(), "balancing round")
	if elapsed := sw.ElapsedTicks(); elapsed > 4000 {
		t.Fatalf("balancing took %d ticks, deadline 4000 (congestion backoff storm)", elapsed)
	}
	if moved := c.DNs[1].BlockCount(); moved < 6 {
		t.Fatalf("balancer moved only %d blocks to the empty DataNode, want >= 6", moved)
	}
}

// testBalancerBandwidth reproduces the bandwidthPerSec case study: many
// concurrent moves into one DataNode; if a high-limit source floods a
// low-limit target, the target's throttled progress reports starve and the
// Balancer times out (Table 3).
func testBalancerBandwidth(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 1})
	// Spread files across directories to respect the (scaled) per-directory
	// item limit. 72 blocks -> 36 planned moves -> ~3,600 ticks of ingress
	// backlog on a low-limit (10 bytes/tick) target, past the 2,000-tick
	// balancer idle limit.
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/bw%d", d)
		t.NoErr(client.Mkdir(dir), "mkdir bandwidth dir")
		for i := 0; i < 24; i++ {
			t.NoErr(client.WriteFile(fmt.Sprintf("%s/f-%02d", dir, i), testData(1000)), "write bandwidth payload")
		}
	}
	_, err := c.AddDataNode()
	t.NoErr(err, "add empty datanode")
	t.NoErr(c.WaitActive(client, c.ActiveDeadline(conf)), "wait for the new datanode")

	b, err := StartBalancer(t.Env, conf, "balancer", NNAddr)
	t.NoErr(err, "start balancer")
	t.Env.Defer(b.Stop)
	t.NoErr(b.Run(), "balancing round under bandwidth limits")
}

// testBalancerUpgradeDomain reproduces the upgrade-domain case study:
// replicas of each block span three domains; the only under-utilized target
// shares a domain with an existing replica, so a Balancer whose factor is
// smaller than the NameNode's proposes moves the NameNode forever declines
// (Table 3: dfs.namenode.upgrade.domain.factor).
func testBalancerUpgradeDomain(t *harness.T) {
	conf := t.Env.RT.NewConf()
	conf.SetInt(ParamReplication, 3)
	c, client, _ := startClusterWith(t, conf, ClusterOptions{
		DataNodes: 3,
		Domains:   []string{"ud-0", "ud-1", "ud-2", "ud-1"},
	})
	for i := 0; i < 4; i++ {
		t.NoErr(client.WriteFile(fmt.Sprintf("/ud-%d", i), testData(600)), "write domain payload")
	}
	_, err := c.AddDataNode() // domain ud-1, empty
	t.NoErr(err, "add fourth datanode")
	t.NoErr(c.WaitActive(client, c.ActiveDeadline(conf)), "wait for the new datanode")

	b, err := StartBalancer(t.Env, conf, "balancer", NNAddr)
	t.NoErr(err, "start balancer")
	t.Env.Defer(b.Stop)
	t.NoErr(b.Run(), "balancing round under the upgrade-domain placement policy")
}

// testMoverColdMigration tags a file COLD and expects the Mover to migrate
// its replicas from the DISK DataNode to the ARCHIVE one. The Mover shares
// the Balancer's transfer machinery, so it exercises the same transport and
// concurrency parameters from its own node type.
func testMoverColdMigration(t *harness.T) {
	c, client, conf := startCluster(t, ClusterOptions{DataNodes: 1, Tiers: []string{TierDisk, TierArchive}})
	data := testData(900)
	t.NoErr(client.WriteFile("/cold", data), "write /cold")
	t.NoErr(client.SetStoragePolicy("/cold", PolicyCold), "tag /cold")
	_, err := c.AddDataNode() // the ARCHIVE node
	t.NoErr(err, "add archive datanode")
	t.NoErr(c.WaitActive(client, c.ActiveDeadline(conf)), "wait for the archive datanode")

	mover, err := StartMover(t.Env, conf, NNAddr)
	t.NoErr(err, "start mover")
	t.NoErr(mover.Run(PolicyCold), "mover migration round")
	if got := c.DNs[1].BlockCount(); got != 1 {
		t.Fatalf("archive datanode holds %d replicas after migration, want 1", got)
	}
	if got := c.DNs[0].BlockCount(); got != 0 {
		t.Fatalf("disk datanode still holds %d replicas after migration", got)
	}
	back, err := client.ReadFile("/cold")
	t.NoErr(err, "read migrated file")
	if !bytes.Equal(back, data) {
		t.Fatalf("migrated file corrupted: %d bytes", len(back))
	}
}

// testCheckpoint verifies checkpoint contents logically: the compression
// flag travels with the image, so heterogeneous dfs.image.compress is
// harmless here — the assertion style the paper endorses.
func testCheckpoint(t *harness.T) {
	c, client, _ := startCluster(t, ClusterOptions{DataNodes: 1, WithSecondary: true})
	t.NoErr(client.WriteFile("/ckpt", testData(256)), "write /ckpt")
	t.NoErr(c.SNN.Checkpoint(), "checkpoint")
	if img := c.SNN.LastImage(); !bytes.Contains(img, []byte("/ckpt")) {
		t.Fatalf("checkpoint image does not mention /ckpt (image %d bytes)", len(img))
	}
}

// testImageComparison is the §7.1 overly-strict-assertion trap: it compares
// the LENGTHS of two NameNodes' images before comparing contents. Under
// heterogeneous dfs.image.compress the lengths differ although the
// decompressed contents are identical — a false positive.
func testImageComparison(t *harness.T) {
	conf := t.Env.RT.NewConf()
	nn1, err := StartNameNode(t.Env, conf, "nn")
	t.NoErr(err, "start first namenode")
	t.Env.Defer(nn1.Stop)
	nn2, err := StartNameNode(t.Env, conf, "nn2")
	t.NoErr(err, "start second namenode")
	t.Env.Defer(nn2.Stop)

	c1, err := NewClient(t.Env, conf, "nn")
	t.NoErr(err, "client for nn")
	c2, err := NewClient(t.Env, conf, "nn2")
	t.NoErr(err, "client for nn2")
	img1, err := c1.GetImage()
	t.NoErr(err, "image from nn")
	img2, err := c2.GetImage()
	t.NoErr(err, "image from nn2")

	// Overly strict: byte-length equality (fails under heterogeneous
	// compression even though the namespaces are identical).
	if len(img1.Image) != len(img2.Image) {
		t.Fatalf("namenode image lengths differ: %d vs %d", len(img1.Image), len(img2.Image))
	}
	// The meaningful check: identical decompressed contents, inflated
	// with the test's own configured codec (as the HDFS test would; the
	// read happens only for compressed images).
	decode := func(img ImageResp) ([]byte, error) {
		if !img.Compressed {
			return img.Image, nil
		}
		return decodeImageCodec(conf.Get(ParamImageCodec), img.Image)
	}
	raw1, err := decode(img1)
	t.NoErr(err, "decode image 1")
	raw2, err := decode(img2)
	t.NoErr(err, "decode image 2")
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("namenode image contents differ")
	}
}

// testScanPeriodInternals is the §7.1 private-state trap: the test compares
// a node's internal field against the CLIENT's configuration object —
// impossible in a real deployment, so any failure is a false positive.
func testScanPeriodInternals(t *harness.T) {
	c, _, conf := startCluster(t, ClusterOptions{DataNodes: 1})
	if got, want := c.DNs[0].ScanPeriod(), conf.GetTicks(ParamScanPeriod); got != want {
		t.Fatalf("datanode internal scan period %d != client-configured %d", got, want)
	}
}

// testReplWorkInternals is the private-accessor visibility trap (§7.1): the
// compared value is reachable only through a non-public NameNode method.
func testReplWorkInternals(t *harness.T) {
	c, _, conf := startCluster(t, ClusterOptions{DataNodes: 2})
	want := conf.GetInt(ParamReplWorkMulti) * 2
	if got := c.NN.ReplWorkLimit(); got != want {
		t.Fatalf("namenode internal replication work limit %d != client-derived %d", got, want)
	}
}

// testEditTailing journals two segments (one finalized, one in progress)
// and tails them; requester and JournalNode must agree on in-progress
// tailing (Table 3: dfs.ha.tail-edits.in-progress).
func testEditTailing(t *harness.T) {
	c, _, conf := startCluster(t, ClusterOptions{DataNodes: 1, WithJournal: true})
	_ = c
	jn, err := common.DialIPC(t.Env.Fabric, JNAddr, conf, t.Env.Scale, common.SecurityFromConf(conf))
	t.NoErr(err, "dial journalnode")
	t.NoErr(MethodJournal.Call(jn, JournalReq{SegmentID: 0, Edits: []string{"mkdir /a", "create /a/f"}}), "journal segment 0")
	t.NoErr(MethodFinalizeSegment.Call(jn, SegmentReq{SegmentID: 0}), "finalize segment 0")
	t.NoErr(MethodJournal.Call(jn, JournalReq{SegmentID: 1, Edits: []string{"delete /a/f"}}), "journal segment 1")

	tailer, err := NewStandbyTailer(t.Env, conf, JNAddr)
	t.NoErr(err, "create standby tailer")
	edits, err := tailer.Tail(0)
	t.NoErr(err, "tail edits")
	want := 2
	if conf.GetBool(ParamTailEditsInProgress) {
		want = 3
	}
	if len(edits) != want {
		t.Fatalf("tailed %d edits, want %d under the configured in-progress policy", len(edits), want)
	}
}

// testSharedIPCHeartbeat wires the shared IPC component into every
// DataNode (§7.1 "Violating assumptions"): per-node values for the four IPC
// tuning parameters make the component's cross-check fail, a false alarm.
func testSharedIPCHeartbeat(t *harness.T) {
	shared := common.NewSharedIPC(t.Env.RT)
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2, SharedIPC: shared})
	t.NoErr(client.WriteFile("/shared", testData(200)), "write with the shared IPC component")
}

// testSharedIPCFixed applies the paper's one-line fix (disable the
// sharing); the same scenario then passes under any assignment.
func testSharedIPCFixed(t *harness.T) {
	shared := common.NewSharedIPC(t.Env.RT)
	shared.DisableSharing()
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2, SharedIPC: shared})
	t.NoErr(client.WriteFile("/shared-fixed", testData(200)), "write with the fixed IPC component")
}

// testFlakyLeaseRecovery fails nondeterministically regardless of
// configuration; the TestRunner's hypothesis testing must filter it (§5).
func testFlakyLeaseRecovery(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	t.NoErr(client.WriteFile("/lease", testData(150)), "write /lease")
	if t.Env.Float64() < 0.30 {
		t.Fatalf("simulated race: lease recovery lost to a concurrent writer")
	}
}

// testFlakyDecommission is a second nondeterministic test with a lower
// failure probability.
func testFlakyDecommission(t *harness.T) {
	_, client, _ := startCluster(t, ClusterOptions{DataNodes: 2})
	t.NoErr(client.WriteFile("/decom", testData(150)), "write /decom")
	if t.Env.Float64() < 0.15 {
		t.Fatalf("simulated race: decommission monitor observed a half-removed node")
	}
}
