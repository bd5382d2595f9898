package minihbase

import (
	"fmt"
	"strings"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// App returns the minihbase application descriptor. Its node-type list
// includes the embedded HDFS types: an HBase campaign also tests them
// (paper §7.2, the Table 5 "Original" row assumption).
func App() *harness.App {
	return &harness.App{
		Name:   "minihbase",
		Schema: schema,
		NodeTypes: []string{
			TypeHMaster, TypeRegionServer, TypeThriftServer,
			minihdfs.TypeNameNode, minihdfs.TypeDataNode,
		},
		Annotations: harness.AnnotationStats{NodeLines: 10, ConfLines: 7},
		Tests:       testSuite(),
	}
}

func testSuite() []harness.UnitTest {
	tests := []harness.UnitTest{
		{Name: "TestPutGet", Run: testPutGet},
		{Name: "TestPutGetManyRows", Run: testPutGetManyRows},
		{Name: "TestFlushToHDFS", Run: testFlushToHDFS},
		{Name: "TestThriftAdmin", Run: testThriftAdmin},
		{Name: "TestThriftRoundTrips", Run: testThriftRoundTrips},
		{Name: "TestMasterAssignment", Run: testMasterAssignment},
		{Name: "TestScanPrefix", Run: testScanPrefix},
		{Name: "TestMajorCompaction", Run: testMajorCompaction},
		{Name: "TestOpenRegionDirect", Run: testOpenRegionDirect},
		{Name: "TestFlakyRegionMove", Run: testFlakyRegionMove},
	}
	return append(tests, functionLevelTests()...)
}

// hbaseCluster is everything an HBase test starts: embedded HDFS plus the
// HBase nodes, all sharing the test's configuration object.
type hbaseCluster struct {
	dfs    *minihdfs.Cluster
	master *HMaster
	rss    []*HRegionServer
	thrift *ThriftServer
}

func startHBase(t *harness.T, regionServers int, withThrift bool) (*hbaseCluster, *confkit.Conf) {
	conf := t.Env.RT.NewConf()
	dfs, err := minihdfs.StartCluster(t.Env, conf, minihdfs.ClusterOptions{DataNodes: 1})
	t.NoErr(err, "start embedded hdfs")

	c := &hbaseCluster{dfs: dfs}
	c.master, err = StartHMaster(t.Env, conf)
	t.NoErr(err, "start hmaster")
	t.Env.Defer(c.master.Stop)
	for i := 0; i < regionServers; i++ {
		rs, err := StartHRegionServer(t.Env, conf, fmt.Sprintf("rs%d", i), minihdfs.NNAddr)
		t.NoErr(err, "start regionserver")
		t.Env.Defer(rs.Stop)
		c.rss = append(c.rss, rs)
	}
	if withThrift {
		c.thrift, err = StartThriftServer(t.Env, conf, "rs0")
		t.NoErr(err, "start thrift server")
		t.Env.Defer(c.thrift.Stop)
	}
	return c, conf
}

// hbaseClient performs client operations with the unit test's
// configuration: locate through the master, then talk to the owning
// region server.
type hbaseClient struct {
	t      *harness.T
	conf   *confkit.Conf
	master *rpcsim.Conn
}

func newHBaseClient(t *harness.T, conf *confkit.Conf) *hbaseClient {
	conn, err := common.DialIPC(t.Env.Fabric, conf.Get(ParamMasterAddress), conf, t.Env.Scale,
		common.SecurityFromConf(conf))
	t.NoErr(err, "dial hmaster")
	_ = conf.GetInt(ParamClientRetries)
	_ = conf.GetInt(ParamScannerCaching)
	return &hbaseClient{t: t, conf: conf, master: conn}
}

func (c *hbaseClient) regionConn(table, key string) *rpcsim.Conn {
	loc, err := MethodLocate.Call(c.master, LocateReq{Table: table, Key: key})
	c.t.NoErr(err, "locate row")
	conn, err := common.DialIPC(c.t.Env.Fabric, loc.Addr, c.conf, c.t.Env.Scale,
		common.SecurityFromConf(c.conf))
	c.t.NoErr(err, "dial regionserver")
	return conn
}

func (c *hbaseClient) put(table, key, value string) {
	conn := c.regionConn(table, key)
	c.t.NoErr(MethodPut.Call(conn, RowReq{Table: table, Key: key, Value: value}), "put row")
}

func (c *hbaseClient) get(table, key string) (string, bool) {
	conn := c.regionConn(table, key)
	resp, err := MethodGet.Call(conn, RowReq{Table: table, Key: key})
	c.t.NoErr(err, "get row")
	return resp.Value, resp.Found
}

func testPutGet(t *harness.T) {
	_, conf := startHBase(t, 2, false)
	client := newHBaseClient(t, conf)
	client.put("tbl", "row1", "v1")
	if val, ok := client.get("tbl", "row1"); !ok || val != "v1" {
		t.Fatalf("get(tbl,row1) = (%q,%v), want (v1,true)", val, ok)
	}
}

func testPutGetManyRows(t *harness.T) {
	_, conf := startHBase(t, 2, false)
	client := newHBaseClient(t, conf)
	for i := 0; i < 20; i++ {
		client.put("many", fmt.Sprintf("row-%02d", i), fmt.Sprintf("val-%02d", i))
	}
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("row-%02d", i)
		if val, ok := client.get("many", key); !ok || val != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("get(many,%s) = (%q,%v)", key, val, ok)
		}
	}
}

// testFlushToHDFS drives a region server flush through the embedded HDFS
// write pipeline — HDFS checksum and transfer parameters are exercised by
// an HBase test, exactly the layering the paper's counting assumes.
func testFlushToHDFS(t *harness.T) {
	c, conf := startHBase(t, 1, false)
	client := newHBaseClient(t, conf)
	client.put("persist", "k", "v")

	rsConn, err := common.DialIPC(t.Env.Fabric, "rs0", conf, t.Env.Scale, common.SecurityFromConf(conf))
	t.NoErr(err, "dial regionserver")
	t.NoErr(MethodFlush.Call(rsConn, FlushReq{Table: "persist"}), "flush memstore to hdfs")

	dfsClient, err := c.dfs.Client(conf)
	t.NoErr(err, "hdfs client")
	data, err := dfsClient.ReadFile("/hbase/persist/rs0.hfile")
	t.NoErr(err, "read flushed hfile")
	if !strings.Contains(string(data), "k=v") {
		t.Fatalf("flushed hfile missing row: %q", data)
	}
}

// testThriftAdmin talks to the ThriftServer with the CLIENT's thrift
// protocol settings (Table 3: thrift.compact / thrift.framed).
func testThriftAdmin(t *harness.T) {
	_, conf := startHBase(t, 1, true)
	t.NoErr(ThriftCall(t.Env, conf, MethodPut.Name, RowReq{Table: "tt", Key: "a", Value: "1"}, nil), "thrift put")
	var resp RowResp
	t.NoErr(ThriftCall(t.Env, conf, MethodGet.Name, RowReq{Table: "tt", Key: "a"}, &resp), "thrift get")
	if !resp.Found || resp.Value != "1" {
		t.Fatalf("thrift get = %+v, want value 1", resp)
	}
}

func testThriftRoundTrips(t *harness.T) {
	_, conf := startHBase(t, 1, true)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		t.NoErr(ThriftCall(t.Env, conf, MethodPut.Name, RowReq{Table: "loop", Key: key, Value: key}, nil), "thrift put loop")
		var resp RowResp
		t.NoErr(ThriftCall(t.Env, conf, MethodGet.Name, RowReq{Table: "loop", Key: key}, &resp), "thrift get loop")
		if resp.Value != key {
			t.Fatalf("thrift round trip %d = %q", i, resp.Value)
		}
	}
}

// testMasterAssignment checks that rows spread across region servers.
func testMasterAssignment(t *harness.T) {
	c, conf := startHBase(t, 3, false)
	client := newHBaseClient(t, conf)
	for i := 0; i < 30; i++ {
		client.put("spread", fmt.Sprintf("key-%03d", i), "x")
	}
	nonEmpty := 0
	for _, rs := range c.rss {
		rs.mu.Lock()
		if len(rs.memstore["spread"]) > 0 {
			nonEmpty++
		}
		rs.mu.Unlock()
	}
	if nonEmpty < 2 {
		t.Fatalf("rows landed on %d region servers, want at least 2", nonEmpty)
	}
}

// testScanPrefix reads rows back through the scan API.
func testScanPrefix(t *harness.T) {
	_, conf := startHBase(t, 1, false)
	client := newHBaseClient(t, conf)
	for i := 0; i < 6; i++ {
		client.put("sc", fmt.Sprintf("row-%d", i), fmt.Sprintf("v%d", i))
	}
	client.put("sc", "other", "x")
	conn := client.regionConn("sc", "row-0")
	resp, err := MethodScan.Call(conn, ScanReq{Table: "sc", Prefix: "row-", Limit: 10})
	t.NoErr(err, "scan rows")
	if len(resp.Rows) != 6 || resp.More {
		t.Fatalf("scan returned %d rows (more=%v), want 6", len(resp.Rows), resp.More)
	}
	limited, err := MethodScan.Call(conn, ScanReq{Table: "sc", Prefix: "row-", Limit: 2})
	t.NoErr(err, "limited scan")
	if len(limited.Rows) != 2 || !limited.More {
		t.Fatalf("limited scan returned %d rows (more=%v), want 2 truncated", len(limited.Rows), limited.More)
	}
}

// testMajorCompaction drives the master's slow compaction RPC, exposing
// ipc.client.rpc-timeout.ms skew (Table 3, Hadoop Common).
func testMajorCompaction(t *harness.T) {
	_, conf := startHBase(t, 1, false)
	client := newHBaseClient(t, conf)
	t.NoErr(MethodCompactAll.Call(client.master, rpcsim.Empty{}), "major compaction (slow RPC)")
}

// testOpenRegionDirect is the paper's §7.1 HBase false positive: the test
// manipulates node internals with the client's configuration object.
func testOpenRegionDirect(t *harness.T) {
	c, conf := startHBase(t, 1, false)
	t.NoErr(c.rss[0].OpenRegionDirect(conf, "direct-region"), "open region directly on the regionserver")
}

func testFlakyRegionMove(t *harness.T) {
	_, conf := startHBase(t, 2, false)
	client := newHBaseClient(t, conf)
	client.put("mv", "r", "v")
	if t.Env.Float64() < 0.2 {
		t.Fatalf("simulated race: region moved during client operation")
	}
}

func functionLevelTests() []harness.UnitTest {
	return []harness.UnitTest{
		{Name: "TestThriftEncodeDecode", Run: func(t *harness.T) {
			for _, compact := range []bool{false, true} {
				for _, framed := range []bool{false, true} {
					wire := thriftEncode(compact, framed, []byte("body"))
					out, err := thriftDecode(compact, framed, wire)
					t.NoErr(err, "thrift round trip")
					if string(out) != "body" {
						t.Fatalf("round trip (compact=%v framed=%v) = %q", compact, framed, out)
					}
				}
			}
		}},
		{Name: "TestThriftProtocolMismatch", Run: func(t *harness.T) {
			wire := thriftEncode(true, false, []byte("x"))
			if _, err := thriftDecode(false, false, wire); err == nil {
				t.Fatalf("binary decoder accepted a compact message")
			}
		}},
		{Name: "TestThriftFramingMismatch", Run: func(t *harness.T) {
			wire := thriftEncode(false, false, []byte("x"))
			if _, err := thriftDecode(false, true, wire); err == nil {
				t.Fatalf("framed decoder accepted an unframed message")
			}
			framedWire := thriftEncode(false, true, []byte("x"))
			if _, err := thriftDecode(false, false, framedWire); err == nil {
				t.Fatalf("unframed decoder accepted a framed message")
			}
		}},
		{Name: "TestRegistryLayersHDFS", Run: func(t *harness.T) {
			r := NewRegistry()
			if r.Lookup(minihdfs.ParamChecksumType) == nil {
				t.Fatalf("hbase registry does not include hdfs parameters")
			}
			if r.Lookup(common.ParamRPCProtection) == nil {
				t.Fatalf("hbase registry does not include hadoop common parameters")
			}
		}},
	}
}
