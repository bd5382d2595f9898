package minihbase

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// RegisterRSReq announces a region server to the master.
type RegisterRSReq struct {
	RSID string
	Addr string
}

// LocateReq resolves which region server owns a row.
type LocateReq struct {
	Table string
	Key   string
}

// LocateResp names the owning region server.
type LocateResp struct {
	RSID string
	Addr string
}

// RowReq is a put or get.
type RowReq struct {
	Table string
	Key   string
	Value string
}

// RowResp returns a row value.
type RowResp struct {
	Value string
	Found bool
}

// FlushReq persists a table's memstore to HDFS.
type FlushReq struct {
	Table string
}

// ScanReq reads rows by key prefix.
type ScanReq struct {
	Table  string
	Prefix string
	Limit  int64
}

// ScanResp returns matching rows, sorted by key; More reports truncation.
type ScanResp struct {
	Rows []RowReq
	More bool
}

// HMaster IPC methods.
var (
	MethodRegisterRS = rpcsim.Command[RegisterRSReq]{Name: "registerRS"}
	MethodCompactAll = rpcsim.Command[rpcsim.Empty]{Name: "compactAll"}
	MethodLocate     = rpcsim.Method[LocateReq, LocateResp]{Name: "locate"}
)

var hMasterRPC rpcsim.Service[HMaster]

func init() {
	rpcsim.HandleCommand(&hMasterRPC, MethodRegisterRS, (*HMaster).registerRS)
	rpcsim.HandleCommand(&hMasterRPC, MethodCompactAll, (*HMaster).compactAll)
	rpcsim.Handle(&hMasterRPC, MethodLocate, (*HMaster).locate)
}

// HRegionServer IPC methods. The thrift gateway accepts put and get under
// the same names, inside its own envelope.
var (
	MethodPut   = rpcsim.Command[RowReq]{Name: "put"}
	MethodGet   = rpcsim.Method[RowReq, RowResp]{Name: "get"}
	MethodScan  = rpcsim.Method[ScanReq, ScanResp]{Name: "scan"}
	MethodFlush = rpcsim.Command[FlushReq]{Name: "flush"}
)

var regionServerRPC rpcsim.Service[HRegionServer]

func init() {
	rpcsim.HandleCommand(&regionServerRPC, MethodPut, (*HRegionServer).put)
	rpcsim.Handle(&regionServerRPC, MethodGet, (*HRegionServer).get)
	rpcsim.Handle(&regionServerRPC, MethodScan, (*HRegionServer).scan)
	rpcsim.HandleCommand(&regionServerRPC, MethodFlush, func(rs *HRegionServer, req *FlushReq) error { return rs.flush(req.Table) })
}

// HMaster assigns row ranges to region servers (hash assignment — a
// faithful-enough stand-in for region assignment).
type HMaster struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server
	rpc  rpcsim.Handler

	mu  sync.Mutex
	rss []RegisterRSReq
}

// StartHMaster boots the master at its configured address.
func StartHMaster(env *harness.Env, conf *confkit.Conf) (*HMaster, error) {
	env.RT.StartInit(TypeHMaster)
	defer env.RT.StopInit()
	m := &HMaster{env: env, conf: conf.RefToClone()}
	m.rpc = hMasterRPC.Bind("minihbase: hmaster", m)
	_ = m.conf.GetBool(ParamSanityChecks)
	_ = m.conf.GetTicks(ParamBalancerPeriod)
	_ = m.conf.Get(ParamZKQuorum)
	srv, err := common.ServeIPC(env.Fabric, m.conf.Get(ParamMasterAddress), m.conf, env.Scale,
		common.SecurityFromConf(m.conf), m.rpc)
	if err != nil {
		return nil, fmt.Errorf("minihbase: start hmaster: %w", err)
	}
	m.srv = srv
	return m, nil
}

// Stop shuts the master down.
func (m *HMaster) Stop() { m.srv.Close() }

func (m *HMaster) registerRS(req *RegisterRSReq) error {
	m.mu.Lock()
	m.rss = append(m.rss, *req)
	sort.Slice(m.rss, func(i, j int) bool { return m.rss[i].RSID < m.rss[j].RSID })
	m.mu.Unlock()
	return nil
}

// compactAll is a cluster-wide major compaction: a deliberately slow admin
// RPC exercising the IPC timeout/keepalive machinery.
func (m *HMaster) compactAll(*rpcsim.Empty) error {
	m.env.Scale.Sleep(600)
	return nil
}

func (m *HMaster) locate(req *LocateReq) (LocateResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rss) == 0 {
		return LocateResp{}, fmt.Errorf("minihbase: no region servers registered")
	}
	h := 0
	for _, c := range req.Table + "/" + req.Key {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	rs := m.rss[h%len(m.rss)]
	return LocateResp{RSID: rs.RSID, Addr: rs.Addr}, nil
}

// HRegionServer stores rows in memstores and flushes them to HDFS with an
// embedded DFS client configured from the region server's OWN
// configuration (which is how HDFS client parameters become testable
// through HBase, per Table 5's layering assumption).
type HRegionServer struct {
	env  *harness.Env
	conf *confkit.Conf
	id   string
	srv  *rpcsim.Server
	dfs  *minihdfs.Client

	memstoreFlush int64

	mu       sync.Mutex
	memstore map[string]map[string]string // table -> key -> value
}

// StartHRegionServer boots a region server, registers with the master, and
// opens its embedded DFS client against nnAddr.
func StartHRegionServer(env *harness.Env, conf *confkit.Conf, id, nnAddr string) (*HRegionServer, error) {
	env.RT.StartInit(TypeRegionServer)
	defer env.RT.StopInit()

	rs := &HRegionServer{
		env:      env,
		conf:     conf.RefToClone(),
		id:       id,
		memstore: make(map[string]map[string]string),
	}
	_ = rs.conf.GetInt(ParamRSHandlerCount)
	_ = rs.conf.GetInt(ParamMaxFileSize)
	rs.memstoreFlush = rs.conf.GetInt(ParamMemstoreFlush)

	dfs, err := minihdfs.NewClient(env, rs.conf, nnAddr)
	if err != nil {
		return nil, fmt.Errorf("minihbase: regionserver %s cannot reach hdfs: %w", id, err)
	}
	rs.dfs = dfs

	srv, err := common.ServeIPC(env.Fabric, id, rs.conf, env.Scale,
		common.SecurityFromConf(rs.conf), regionServerRPC.Bind("minihbase: regionserver "+id, rs))
	if err != nil {
		return nil, fmt.Errorf("minihbase: start regionserver %s: %w", id, err)
	}
	rs.srv = srv

	master, err := common.DialIPC(env.Fabric, rs.conf.Get(ParamMasterAddress), rs.conf, env.Scale,
		common.SecurityFromConf(rs.conf))
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("minihbase: regionserver %s cannot reach hmaster: %w", id, err)
	}
	if err := MethodRegisterRS.Call(master, RegisterRSReq{RSID: id, Addr: id}); err != nil {
		srv.Close()
		return nil, fmt.Errorf("minihbase: regionserver %s registration: %w", id, err)
	}
	return rs, nil
}

// Stop shuts the region server down.
func (rs *HRegionServer) Stop() { rs.srv.Close() }

// OpenRegionDirect is the paper's §7.1 HBase false-positive trap: a unit
// test calls this node-internal method directly, passing the CLIENT's
// configuration object; in a real deployment the region server would use
// its own. The cross-check fails under per-node values for
// hbase.hregion.memstore.block.multiplier.
func (rs *HRegionServer) OpenRegionDirect(callerConf *confkit.Conf, region string) error {
	callerMult := callerConf.GetInt(ParamMemstoreBlockMult)
	ownMult := rs.conf.GetInt(ParamMemstoreBlockMult)
	if callerMult != ownMult {
		return fmt.Errorf(
			"minihbase: regionserver %s: open region %s: memstore block multiplier %d (caller) vs %d (server)",
			rs.id, region, callerMult, ownMult)
	}
	rs.mu.Lock()
	if rs.memstore[region] == nil {
		rs.memstore[region] = make(map[string]string)
	}
	rs.mu.Unlock()
	return nil
}

func (rs *HRegionServer) put(req *RowReq) error {
	rs.mu.Lock()
	if rs.memstore[req.Table] == nil {
		rs.memstore[req.Table] = make(map[string]string)
	}
	rs.memstore[req.Table][req.Key] = req.Value
	rs.mu.Unlock()
	return nil
}

func (rs *HRegionServer) get(req *RowReq) (RowResp, error) {
	rs.mu.Lock()
	val, ok := rs.memstore[req.Table][req.Key]
	rs.mu.Unlock()
	return RowResp{Value: val, Found: ok}, nil
}

// scan returns the rows of a table whose keys carry the given prefix,
// sorted, capped at Limit (or the region server's configured scanner
// caching when Limit is zero — a local batching knob, heterogeneous-safe).
func (rs *HRegionServer) scan(req *ScanReq) (ScanResp, error) {
	limit := req.Limit
	if limit <= 0 {
		limit = rs.conf.GetInt(ParamScannerCaching)
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var keys []string
	for k := range rs.memstore[req.Table] {
		if strings.HasPrefix(k, req.Prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var resp ScanResp
	for _, k := range keys {
		if int64(len(resp.Rows)) >= limit {
			resp.More = true
			break
		}
		resp.Rows = append(resp.Rows, RowReq{Table: req.Table, Key: k, Value: rs.memstore[req.Table][k]})
	}
	return resp, nil
}

// flush persists a table's memstore as an HFile-like blob on HDFS, going
// through the full checksummed write pipeline.
func (rs *HRegionServer) flush(table string) error {
	rs.mu.Lock()
	rows := rs.memstore[table]
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var blob []byte
	for _, k := range keys {
		blob = append(blob, []byte(k+"="+rows[k]+"\n")...)
	}
	rs.mu.Unlock()
	if len(blob) == 0 {
		return nil
	}
	if err := rs.dfs.Mkdir("/hbase"); err != nil && !strings.Contains(err.Error(), "exists") {
		return err
	}
	if err := rs.dfs.Mkdir("/hbase/" + table); err != nil && !strings.Contains(err.Error(), "exists") {
		return err
	}
	path := fmt.Sprintf("/hbase/%s/%s.hfile", table, rs.id)
	return rs.dfs.WriteFile(path, blob)
}

// ThriftServer fronts a region server with the mini-Thrift protocol,
// transcoded per ITS OWN compact/framed settings (Table 3).
type ThriftServer struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server
	rs   *rpcsim.Conn
}

// StartThriftServer boots the thrift gateway in front of rsAddr.
func StartThriftServer(env *harness.Env, conf *confkit.Conf, rsAddr string) (*ThriftServer, error) {
	env.RT.StartInit(TypeThriftServer)
	defer env.RT.StopInit()

	ts := &ThriftServer{env: env, conf: conf.RefToClone()}
	rsConn, err := common.DialIPC(env.Fabric, rsAddr, ts.conf, env.Scale, common.SecurityFromConf(ts.conf))
	if err != nil {
		return nil, fmt.Errorf("minihbase: thrift server cannot reach regionserver: %w", err)
	}
	ts.rs = rsConn
	srv, err := env.Fabric.Serve(ts.conf.Get(ParamThriftAddress), rpcsim.Security{}, env.Scale, ts.handle)
	if err != nil {
		return nil, fmt.Errorf("minihbase: start thrift server: %w", err)
	}
	ts.srv = srv
	return ts, nil
}

// Stop shuts the gateway down.
func (ts *ThriftServer) Stop() { ts.srv.Close() }

// handle unwraps the thrift envelope with the SERVER's settings, forwards
// the row operation, and wraps the response the same way.
func (ts *ThriftServer) handle(method string, payload []byte) ([]byte, error) {
	compact := ts.conf.GetBool(ParamThriftCompact)
	framed := ts.conf.GetBool(ParamThriftFramed)
	body, err := thriftDecode(compact, framed, payload)
	if err != nil {
		return nil, err
	}
	var req RowReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("minihbase: thrift: bad %s body: %w", method, err)
	}
	var respBody []byte
	switch method {
	case MethodPut.Name:
		if err := MethodPut.Call(ts.rs, req); err != nil {
			return nil, err
		}
		respBody = []byte("{}")
	case MethodGet.Name:
		resp, err := MethodGet.Call(ts.rs, req)
		if err != nil {
			return nil, err
		}
		respBody, _ = json.Marshal(resp)
	default:
		return nil, fmt.Errorf("minihbase: thrift: unknown method %q", method)
	}
	return thriftEncode(compact, framed, respBody), nil
}

// ThriftCall performs one client-side thrift operation with the CLIENT's
// compact/framed settings.
func ThriftCall(env *harness.Env, conf *confkit.Conf, method string, req RowReq, resp any) error {
	compact := conf.GetBool(ParamThriftCompact)
	framed := conf.GetBool(ParamThriftFramed)
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	conn, err := env.Fabric.Dial(conf.Get(ParamThriftAddress), rpcsim.Security{}, env.Scale)
	if err != nil {
		return fmt.Errorf("minihbase: thrift admin cannot connect: %w", err)
	}
	wire, err := conn.Call(method, thriftEncode(compact, framed, body))
	if err != nil {
		return err
	}
	out, err := thriftDecode(compact, framed, wire)
	if err != nil {
		return fmt.Errorf("minihbase: thrift admin: decode response: %w", err)
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(out, resp)
}
