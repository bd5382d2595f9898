package miniyarn

import (
	"fmt"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
	"zebraconf/internal/simtime"
)

// rmMonitorTicks is the ResourceManager liveness monitor cadence.
const rmMonitorTicks = 10

// RegisterNMReq announces a NodeManager and its (naturally per-node)
// resources.
type RegisterNMReq struct {
	NMID     string
	MemoryMB int64
	Vcores   int64
}

// NMHeartbeatReq keeps a NodeManager alive.
type NMHeartbeatReq struct {
	NMID string
}

// AllocateReq asks the scheduler for one container.
type AllocateReq struct {
	AppID    string
	MemoryMB int64
	Vcores   int64
}

// AllocateResp names the NodeManager hosting the granted container.
type AllocateResp struct {
	NMID        string
	ContainerID int64
}

// TokenReq requests a delegation token.
type TokenReq struct {
	Renewer string
}

// AppEvent is a timeline entry.
type AppEvent struct {
	AppID string
	Event string
}

// AppHistoryQuery fetches an application's timeline.
type AppHistoryQuery struct {
	AppID string
}

// AppHistoryResp lists recorded events.
type AppHistoryResp struct {
	Events []string
}

// ResourceManager IPC methods.
var (
	MethodRegisterNM  = rpcsim.Command[RegisterNMReq]{Name: "registerNM"}
	MethodHeartbeatNM = rpcsim.Command[NMHeartbeatReq]{Name: "heartbeatNM"}
	MethodAllocate    = rpcsim.Method[AllocateReq, AllocateResp]{Name: "allocate"}
	MethodGetToken    = rpcsim.Method[TokenReq, common.Token]{Name: "getToken"}
	MethodDrainNode   = rpcsim.Command[rpcsim.Empty]{Name: "drainNode"}
	MethodLiveNMs     = rpcsim.Method[rpcsim.Empty, int]{Name: "liveNMs"}
)

var resourceManagerRPC rpcsim.Service[ResourceManager]

func init() {
	rpcsim.HandleCommand(&resourceManagerRPC, MethodRegisterNM, (*ResourceManager).registerNM)
	rpcsim.HandleCommand(&resourceManagerRPC, MethodHeartbeatNM, (*ResourceManager).heartbeatNM)
	rpcsim.Handle(&resourceManagerRPC, MethodAllocate, (*ResourceManager).allocate)
	rpcsim.Handle(&resourceManagerRPC, MethodGetToken, (*ResourceManager).getToken)
	rpcsim.HandleCommand(&resourceManagerRPC, MethodDrainNode, (*ResourceManager).drainNode)
	rpcsim.Handle(&resourceManagerRPC, MethodLiveNMs, (*ResourceManager).liveNMs)
}

// Timeline web service methods.
var (
	MethodPutEvent   = rpcsim.Command[AppEvent]{Name: "putEvent"}
	MethodGetHistory = rpcsim.Method[AppHistoryQuery, AppHistoryResp]{Name: "getHistory"}
)

var appHistoryRPC rpcsim.Service[AppHistoryServer]

func init() {
	rpcsim.HandleCommand(&appHistoryRPC, MethodPutEvent, (*AppHistoryServer).putEvent)
	rpcsim.Handle(&appHistoryRPC, MethodGetHistory, (*AppHistoryServer).getHistory)
}

// nmState is the ResourceManager's view of one NodeManager.
type nmState struct {
	id       string
	memoryMB int64
	vcores   int64
	usedMB   int64
	usedVC   int64
	lastHB   int64
	dead     bool
}

// ResourceManager schedules containers and mints delegation tokens.
type ResourceManager struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server
	rpc  rpcsim.Handler

	scheduler string // private state for the §7.1 trap test

	mu        sync.Mutex
	nms       map[string]*nmState
	nextCtr   int64
	nextToken int
	stop      *simtime.Signal
	loops     *simtime.Group
}

// StartResourceManager boots the RM at its configured address.
func StartResourceManager(env *harness.Env, conf *confkit.Conf) (*ResourceManager, error) {
	env.RT.StartInit(TypeResourceManager)
	defer env.RT.StopInit()

	rm := &ResourceManager{
		env:   env,
		conf:  conf.RefToClone(),
		nms:   make(map[string]*nmState),
		stop:  env.Scale.NewSignal(),
		loops: env.NewGroup(),
	}
	rm.rpc = resourceManagerRPC.Bind("miniyarn: resourcemanager", rm)
	rm.scheduler = rm.conf.Get(ParamSchedulerClass)
	_ = rm.conf.GetInt(ParamMinAllocMB)
	_ = rm.conf.GetInt(ParamAMMaxAttempts)
	_ = rm.conf.GetBool(ParamFairPreemption)

	srv, err := common.ServeIPC(env.Fabric, rm.conf.Get(ParamRMAddress), rm.conf, env.Scale,
		common.SecurityFromConf(rm.conf), rm.rpc)
	if err != nil {
		return nil, fmt.Errorf("miniyarn: start resourcemanager: %w", err)
	}
	rm.srv = srv
	rm.loops.Go(rm.monitor)
	return rm, nil
}

// SchedulerClass exposes RM-private state for the §7.1 trap test only.
func (rm *ResourceManager) SchedulerClass() string { return rm.scheduler }

// Stop shuts the RM down.
func (rm *ResourceManager) Stop() {
	rm.stop.Fire()
	rm.srv.Close()
	rm.loops.Wait()
}

// monitor expires NodeManagers that miss heartbeats. The threshold is a
// generous 20x the RM's own heartbeat-interval setting, so any candidate
// skew stays harmless — which is why the heartbeat parameter is
// heterogeneous-SAFE here, unlike HDFS's tighter formula.
func (rm *ResourceManager) monitor() {
	for !rm.env.Scale.Wait(rmMonitorTicks, rm.stop) {
		threshold := 20 * rm.conf.GetTicks(ParamNMHeartbeat)
		now := rm.env.Scale.Now()
		rm.mu.Lock()
		for _, nm := range rm.nms {
			nm.dead = now-nm.lastHB > threshold
		}
		rm.mu.Unlock()
	}
}

func (rm *ResourceManager) registerNM(req *RegisterNMReq) error {
	rm.mu.Lock()
	rm.nms[req.NMID] = &nmState{
		id: req.NMID, memoryMB: req.MemoryMB, vcores: req.Vcores,
		lastHB: rm.env.Scale.Now(),
	}
	rm.mu.Unlock()
	return nil
}

func (rm *ResourceManager) heartbeatNM(req *NMHeartbeatReq) error {
	rm.mu.Lock()
	if nm, ok := rm.nms[req.NMID]; ok {
		nm.lastHB = rm.env.Scale.Now()
	}
	rm.mu.Unlock()
	return nil
}

func (rm *ResourceManager) getToken(*TokenReq) (common.Token, error) {
	rm.mu.Lock()
	rm.nextToken++
	id := rm.nextToken
	rm.mu.Unlock()
	return common.IssueToken(rm.env.Scale, id, rm.conf.GetTicks(ParamTokenRenewIntvl)), nil
}

// drainNode waits for containers to finish: a deliberately slow admin RPC
// (the saveNamespace analog) that exercises the IPC timeout/keepalive
// machinery.
func (rm *ResourceManager) drainNode(*rpcsim.Empty) error {
	rm.env.Scale.Sleep(600)
	return nil
}

func (rm *ResourceManager) liveNMs(*rpcsim.Empty) (int, error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	live := 0
	for _, nm := range rm.nms {
		if !nm.dead {
			live++
		}
	}
	return live, nil
}

// allocate enforces the RM's OWN maximum-allocation limits — a request a
// client considers valid under a larger configured maximum is rejected
// (Table 3: yarn.scheduler.maximum-allocation-mb / -vcores).
func (rm *ResourceManager) allocate(req *AllocateReq) (AllocateResp, error) {
	maxMB := rm.conf.GetInt(ParamMaxAllocMB)
	maxVC := rm.conf.GetInt(ParamMaxAllocVcores)
	if req.MemoryMB > maxMB {
		return AllocateResp{}, fmt.Errorf(
			"miniyarn: ResourceManager disallows allocation of %d MB: exceeds %s=%d",
			req.MemoryMB, ParamMaxAllocMB, maxMB)
	}
	if req.Vcores > maxVC {
		return AllocateResp{}, fmt.Errorf(
			"miniyarn: ResourceManager disallows allocation of %d vcores: exceeds %s=%d",
			req.Vcores, ParamMaxAllocVcores, maxVC)
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	for _, nm := range rm.nms {
		if nm.dead || nm.usedMB+req.MemoryMB > nm.memoryMB || nm.usedVC+req.Vcores > nm.vcores {
			continue
		}
		nm.usedMB += req.MemoryMB
		nm.usedVC += req.Vcores
		rm.nextCtr++
		return AllocateResp{NMID: nm.id, ContainerID: rm.nextCtr}, nil
	}
	return AllocateResp{}, fmt.Errorf("miniyarn: no NodeManager can host %d MB / %d vcores", req.MemoryMB, req.Vcores)
}

// NodeManager advertises per-node resources and heartbeats to the RM.
type NodeManager struct {
	env  *harness.Env
	conf *confkit.Conf
	id   string
	rm   *rpcsim.Conn

	stop  *simtime.Signal
	loops *simtime.Group
}

// StartNodeManager boots a NodeManager and registers it.
func StartNodeManager(env *harness.Env, conf *confkit.Conf, id string) (*NodeManager, error) {
	env.RT.StartInit(TypeNodeManager)
	defer env.RT.StopInit()

	nm := &NodeManager{env: env, conf: conf.RefToClone(), id: id, stop: env.Scale.NewSignal(), loops: env.NewGroup()}
	_ = nm.conf.Get(ParamNMLocalDirs)
	_ = nm.conf.Get(ParamNMLogDirs)
	_ = nm.conf.GetBool(ParamVmemCheck)
	_ = nm.conf.GetBool(ParamLogAggregation)
	_ = nm.conf.GetTicks(ParamDeleteDebugDelay)

	conn, err := common.DialIPC(env.Fabric, nm.conf.Get(ParamRMAddress), nm.conf, env.Scale,
		common.SecurityFromConf(nm.conf))
	if err != nil {
		return nil, fmt.Errorf("miniyarn: nodemanager %s cannot reach resourcemanager: %w", id, err)
	}
	nm.rm = conn
	if err := MethodRegisterNM.Call(conn, RegisterNMReq{
		NMID:     id,
		MemoryMB: nm.conf.GetInt(ParamNMMemoryMB),
		Vcores:   nm.conf.GetInt(ParamNMVcores),
	}); err != nil {
		return nil, fmt.Errorf("miniyarn: nodemanager %s failed to register: %w", id, err)
	}

	nm.loops.Go(nm.heartbeatLoop)
	return nm, nil
}

// Stop halts the heartbeat loop.
func (nm *NodeManager) Stop() {
	nm.stop.Fire()
	nm.loops.Wait()
}

func (nm *NodeManager) heartbeatLoop() {
	for {
		interval := nm.conf.GetTicks(ParamNMHeartbeat)
		if interval < 1 {
			interval = 1
		}
		if nm.env.Scale.Wait(interval, nm.stop) {
			return
		}
		_ = MethodHeartbeatNM.Call(nm.rm, NMHeartbeatReq{NMID: nm.id})
	}
}

// AppHistoryServer is the timeline service: a web endpoint whose scheme
// follows ITS yarn.http.policy, serving history only when ITS
// yarn.timeline-service.enabled says so.
type AppHistoryServer struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server
	rpc  rpcsim.Handler

	mu     sync.Mutex
	events map[string][]string
}

// StartAppHistoryServer boots the timeline service.
func StartAppHistoryServer(env *harness.Env, conf *confkit.Conf) (*AppHistoryServer, error) {
	env.RT.StartInit(TypeAppHistory)
	defer env.RT.StopInit()

	ahs := &AppHistoryServer{env: env, conf: conf.RefToClone(), events: make(map[string][]string)}
	ahs.rpc = appHistoryRPC.Bind("miniyarn: timeline", ahs)
	srv, err := common.ServeWeb(env.Fabric, ParamHTTPPolicy, ahs.conf.Get(ParamTimelineHost),
		ahs.conf, env.Scale, ahs.serve)
	if err != nil {
		return nil, fmt.Errorf("miniyarn: start timeline server: %w", err)
	}
	ahs.srv = srv
	return ahs, nil
}

// Stop shuts the timeline service down.
func (ahs *AppHistoryServer) Stop() { ahs.srv.Close() }

// serve answers only while THIS server's configuration enables the
// timeline service.
func (ahs *AppHistoryServer) serve(method string, payload []byte) ([]byte, error) {
	if !ahs.conf.GetBool(ParamTimelineEnabled) {
		return nil, fmt.Errorf("miniyarn: timeline service is disabled on this server (%s=false)", ParamTimelineEnabled)
	}
	return ahs.rpc(method, payload)
}

func (ahs *AppHistoryServer) putEvent(ev *AppEvent) error {
	ahs.mu.Lock()
	ahs.events[ev.AppID] = append(ahs.events[ev.AppID], ev.Event)
	ahs.mu.Unlock()
	return nil
}

func (ahs *AppHistoryServer) getHistory(q *AppHistoryQuery) (AppHistoryResp, error) {
	ahs.mu.Lock()
	defer ahs.mu.Unlock()
	return AppHistoryResp{Events: append([]string(nil), ahs.events[q.AppID]...)}, nil
}
