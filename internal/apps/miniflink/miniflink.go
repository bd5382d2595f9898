// Package miniflink is a miniature Flink analog: a JobManager deploying
// task slots onto TaskManagers, a control plane behind akka.ssl.enabled,
// and a TaskManager-to-TaskManager data plane behind
// taskmanager.data.ssl.enabled.
//
// It reproduces the Flink rows of the paper's Table 3, plus two Flink
// idiosyncrasies §7.2 reports: unit tests that do not call node init
// functions but inline the initialization code (driving up the annotation
// cost, Table 4), and a higher rate of unmappable configuration objects
// (the ~10% uncertainty outlier of §6.2).
package miniflink

import (
	"fmt"
	"sync"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// Node type names (paper Table 2).
const (
	TypeJobManager  = "JobManager"
	TypeTaskManager = "TaskManager"
)

// Parameter names.
const (
	ParamAkkaSSL      = "akka.ssl.enabled"
	ParamDataSSL      = "taskmanager.data.ssl.enabled"
	ParamTaskSlots    = "taskmanager.numberOfTaskSlots"
	ParamMemoryLog    = "taskmanager.debug.memory.log"
	ParamJMHeap       = "jobmanager.memory.heap.size"
	ParamNetFraction  = "taskmanager.memory.network.fraction"
	ParamParallelism  = "parallelism.default"
	ParamRestart      = "restart-strategy"
	ParamNetBuffers   = "taskmanager.network.numberOfBuffers"
	ParamAskTimeout   = "akka.ask.timeout"
	ParamStateBackend = "state.backend"
	ParamJMAddress    = "jobmanager.rpc.address"
	ParamObjectReuse  = "pipeline.object-reuse"
)

// NewRegistry builds the miniflink schema. Flink does not share the Hadoop
// Common library, so nothing is included from it (paper Table 1).
func NewRegistry() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: ParamAkkaSSL, Kind: confkit.Bool, Default: "false",
			Doc:   "TLS on the control plane (actor system)",
			Truth: confkit.SafetyUnsafe,
			Why:   "TaskManager fails to connect to the JobManager / ResourceManager"},
		confkit.Param{Name: ParamDataSSL, Kind: confkit.Bool, Default: "false",
			Doc:   "TLS on the TaskManager data plane",
			Truth: confkit.SafetyUnsafe,
			Why:   "TaskManager fails to decode a peer message due to an invalid SSL/TLS record"},
		confkit.Param{Name: ParamTaskSlots, Kind: confkit.Int, Default: "2",
			Candidates: []string{"2", "4", "1"},
			Doc:        "task slots per TaskManager; the JobManager assumes the value is uniform",
			Truth:      confkit.SafetyUnsafe,
			Why:        "JobManager fails to allocate a slot from a TaskManager with fewer slots than it assumes"},
		confkit.Param{Name: ParamMemoryLog, Kind: confkit.Bool, Default: "false",
			Doc:   "periodic memory usage logging",
			Truth: confkit.SafetyFalsePositive,
			Why:   "a unit test compares a TaskManager's private logging flag against the client's configuration object (§7.1)"},
		confkit.Param{Name: ParamJMHeap, Kind: confkit.Int, Default: "1024",
			Doc: "JobManager heap size"},
		confkit.Param{Name: ParamNetFraction, Kind: confkit.String, Default: "0.1",
			Candidates: []string{"0.1", "0.4"},
			Doc:        "network memory fraction"},
		confkit.Param{Name: ParamParallelism, Kind: confkit.Int, Default: "2",
			Candidates: []string{"2", "4", "1"},
			Doc:        "default job parallelism (client-side)"},
		confkit.Param{Name: ParamRestart, Kind: confkit.Enum, Default: "none",
			Candidates: []string{"none", "fixed-delay"},
			Doc:        "restart strategy"},
		confkit.Param{Name: ParamNetBuffers, Kind: confkit.Int, Default: "2048",
			Doc: "network buffer count"},
		confkit.Param{Name: ParamAskTimeout, Kind: confkit.Ticks, Default: "10000",
			Doc: "actor ask timeout"},
		confkit.Param{Name: ParamStateBackend, Kind: confkit.Enum, Default: "hashmap",
			Candidates: []string{"hashmap", "fs"},
			Doc:        "task state backend (local effect)"},
		confkit.Param{Name: ParamJMAddress, Kind: confkit.String, Default: "jm",
			Doc: "JobManager RPC address"},
		confkit.Param{Name: ParamObjectReuse, Kind: confkit.Bool, Default: "false",
			Doc: "reuse objects in chained operators"},
	)
	return r
}

// controlSecurity is the akka.ssl control-plane profile.
func controlSecurity(conf *confkit.Conf) rpcsim.Security {
	return rpcsim.Security{Encrypt: conf.GetBool(ParamAkkaSSL), Key: "akka-tls-key"}
}

// dataSecurity is the TaskManager data-plane profile.
func dataSecurity(conf *confkit.Conf) rpcsim.Security {
	return rpcsim.Security{Encrypt: conf.GetBool(ParamDataSSL), Key: "data-tls-key"}
}

// RegisterTMReq announces a TaskManager to the JobManager.
type RegisterTMReq struct {
	TMID string
	Addr string // control endpoint
	Data string // data endpoint
}

// SubmitJobReq deploys a job of the given parallelism.
type SubmitJobReq struct {
	JobID       string
	Parallelism int64
}

// DeploySlotReq asks a TaskManager to run a task in one of its slots.
type DeploySlotReq struct {
	JobID     string
	TaskIndex int64
	SlotIndex int64
}

// ExchangeReq sends records from one task to a downstream TaskManager.
type ExchangeReq struct {
	Records []string
}

// CheckpointReq carries a checkpoint barrier.
type CheckpointReq struct {
	CheckpointID int64
}

// CheckpointAck reports the snapshot a TaskManager took.
type CheckpointAck struct {
	TMID    string
	Backend string
	Tasks   int
}

// JobManager control-plane methods.
var (
	MethodRegisterTM        = rpcsim.Command[RegisterTMReq]{Name: "registerTM"}
	MethodTriggerCheckpoint = rpcsim.Method[CheckpointReq, []CheckpointAck]{Name: "triggerCheckpoint"}
	MethodSubmitJob         = rpcsim.Command[SubmitJobReq]{Name: "submitJob"}
)

var jobManagerRPC rpcsim.Service[JobManager]

func init() {
	rpcsim.HandleCommand(&jobManagerRPC, MethodRegisterTM, (*JobManager).registerTM)
	rpcsim.Handle(&jobManagerRPC, MethodTriggerCheckpoint, (*JobManager).checkpoint)
	rpcsim.HandleCommand(&jobManagerRPC, MethodSubmitJob, (*JobManager).deploy)
}

// TaskManager methods: deploySlot and checkpointBarrier arrive on the
// control endpoint, exchange on the data endpoint.
var (
	MethodDeploySlot        = rpcsim.Command[DeploySlotReq]{Name: "deploySlot"}
	MethodCheckpointBarrier = rpcsim.Method[CheckpointReq, CheckpointAck]{Name: "checkpointBarrier"}
	MethodExchange          = rpcsim.Command[ExchangeReq]{Name: "exchange"}
)

var taskManagerRPC rpcsim.Service[TaskManager]

func init() {
	rpcsim.HandleCommand(&taskManagerRPC, MethodDeploySlot, (*TaskManager).deploySlot)
	rpcsim.Handle(&taskManagerRPC, MethodCheckpointBarrier, (*TaskManager).checkpointBarrier)
	rpcsim.HandleCommand(&taskManagerRPC, MethodExchange, (*TaskManager).exchange)
}

// JobManager deploys tasks across registered TaskManagers, assuming —
// per Flink's scheduler configuration model — that every TaskManager has
// the JobManager's OWN configured slot count.
type JobManager struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server

	mu  sync.Mutex
	tms []RegisterTMReq
}

// StartJobManager boots the JobManager at its configured address.
func StartJobManager(env *harness.Env, conf *confkit.Conf) (*JobManager, error) {
	env.RT.StartInit(TypeJobManager)
	defer env.RT.StopInit()
	jm := &JobManager{env: env, conf: conf.RefToClone()}
	_ = jm.conf.GetInt(ParamJMHeap)
	_ = jm.conf.Get(ParamRestart)
	srv, err := env.Fabric.Serve(jm.conf.Get(ParamJMAddress), controlSecurity(jm.conf), env.Scale,
		jobManagerRPC.Bind("miniflink: jobmanager", jm))
	if err != nil {
		return nil, fmt.Errorf("miniflink: start jobmanager: %w", err)
	}
	jm.srv = srv
	return jm, nil
}

// Stop shuts the JobManager down.
func (jm *JobManager) Stop() { jm.srv.Close() }

func (jm *JobManager) registerTM(req *RegisterTMReq) error {
	jm.mu.Lock()
	jm.tms = append(jm.tms, *req)
	jm.mu.Unlock()
	return nil
}

// checkpoint injects a barrier into every registered TaskManager and
// collects their snapshot acknowledgements — complete only when every
// TaskManager acks, like Flink's checkpoint coordinator.
func (jm *JobManager) checkpoint(req *CheckpointReq) ([]CheckpointAck, error) {
	jm.mu.Lock()
	tms := append([]RegisterTMReq(nil), jm.tms...)
	jm.mu.Unlock()
	var acks []CheckpointAck
	for _, tm := range tms {
		conn, err := jm.env.Fabric.Dial(tm.Addr, controlSecurity(jm.conf), jm.env.Scale)
		if err != nil {
			return nil, fmt.Errorf("miniflink: checkpoint %d: dial %s: %w", req.CheckpointID, tm.TMID, err)
		}
		ack, err := MethodCheckpointBarrier.Call(conn, *req)
		if err != nil {
			return nil, fmt.Errorf("miniflink: checkpoint %d: barrier to %s: %w", req.CheckpointID, tm.TMID, err)
		}
		acks = append(acks, ack)
	}
	return acks, nil
}

// deploy spreads req.Parallelism tasks over the TaskManagers, slot indexes
// derived from the JobManager's OWN slot count (Table 3: a TaskManager
// configured with fewer slots rejects the deployment).
func (jm *JobManager) deploy(req *SubmitJobReq) error {
	slots := jm.conf.GetInt(ParamTaskSlots)
	if slots < 1 {
		return fmt.Errorf("miniflink: jobmanager configured with %d slots per taskmanager", slots)
	}
	jm.mu.Lock()
	tms := append([]RegisterTMReq(nil), jm.tms...)
	jm.mu.Unlock()
	for task := int64(0); task < req.Parallelism; task++ {
		tmIdx := task / slots
		if tmIdx >= int64(len(tms)) {
			return fmt.Errorf("miniflink: jobmanager cannot place task %d: %d taskmanagers with %d assumed slots each",
				task, len(tms), slots)
		}
		conn, err := jm.env.Fabric.Dial(tms[tmIdx].Addr, controlSecurity(jm.conf), jm.env.Scale)
		if err != nil {
			return fmt.Errorf("miniflink: jobmanager: dial %s: %w", tms[tmIdx].Addr, err)
		}
		if err := MethodDeploySlot.Call(conn, DeploySlotReq{
			JobID: req.JobID, TaskIndex: task, SlotIndex: task % slots,
		}); err != nil {
			return fmt.Errorf("miniflink: jobmanager failed to allocate slot on %s: %w", tms[tmIdx].TMID, err)
		}
	}
	return nil
}

// TaskManager hosts task slots and a data-plane endpoint.
type TaskManager struct {
	env  *harness.Env
	conf *confkit.Conf
	id   string

	ctl  *rpcsim.Server
	data *rpcsim.Server

	memoryLog bool // private state for the §7.1 trap test

	mu       sync.Mutex
	deployed map[int64]int64 // slot -> task
	received []string
}

// ConstructTaskManager builds and binds a TaskManager WITHOUT any agent
// annotations. Production callers use StartTaskManager; Flink-style unit
// tests inline the init window around this call themselves (§7.2: "its
// unit tests do not invoke the initialization functions directly and
// instead copy the initialization code into the unit test code").
func ConstructTaskManager(env *harness.Env, conf *confkit.Conf, id, jmAddr string) (*TaskManager, error) {
	tm := &TaskManager{env: env, conf: conf, id: id, deployed: make(map[int64]int64)}
	_ = tm.conf.Get(ParamNetFraction)
	_ = tm.conf.GetInt(ParamNetBuffers)
	_ = tm.conf.Get(ParamStateBackend)
	_ = tm.conf.GetBool(ParamObjectReuse)
	tm.memoryLog = tm.conf.GetBool(ParamMemoryLog)

	// One handler serves both the control and the data endpoint.
	rpc := taskManagerRPC.Bind("miniflink: taskmanager "+id, tm)
	ctl, err := env.Fabric.Serve(id+"-ctl", controlSecurity(tm.conf), env.Scale, rpc)
	if err != nil {
		return nil, fmt.Errorf("miniflink: taskmanager %s: %w", id, err)
	}
	tm.ctl = ctl
	data, err := env.Fabric.Serve(id+"-data", dataSecurity(tm.conf), env.Scale, rpc)
	if err != nil {
		ctl.Close()
		return nil, fmt.Errorf("miniflink: taskmanager %s data endpoint: %w", id, err)
	}
	tm.data = data

	conn, err := env.Fabric.Dial(jmAddr, controlSecurity(tm.conf), env.Scale)
	if err != nil {
		tm.Stop()
		return nil, fmt.Errorf("miniflink: taskmanager %s cannot connect to jobmanager: %w", id, err)
	}
	if err := MethodRegisterTM.Call(conn, RegisterTMReq{TMID: id, Addr: id + "-ctl", Data: id + "-data"}); err != nil {
		tm.Stop()
		return nil, fmt.Errorf("miniflink: taskmanager %s registration: %w", id, err)
	}
	return tm, nil
}

// StartTaskManager is the production init function: annotated with the
// agent's init window and reference-clone replacement.
func StartTaskManager(env *harness.Env, conf *confkit.Conf, id, jmAddr string) (*TaskManager, error) {
	env.RT.StartInit(TypeTaskManager)
	defer env.RT.StopInit()
	return ConstructTaskManager(env, conf.RefToClone(), id, jmAddr)
}

// MemoryLogEnabled exposes TM-private state for the §7.1 trap test only.
func (tm *TaskManager) MemoryLogEnabled() bool { return tm.memoryLog }

// Stop closes both endpoints.
func (tm *TaskManager) Stop() {
	if tm.ctl != nil {
		tm.ctl.Close()
	}
	if tm.data != nil {
		tm.data.Close()
	}
}

// DeployedTasks reports how many tasks this TaskManager accepted.
func (tm *TaskManager) DeployedTasks() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.deployed)
}

// Received returns records delivered over the data plane.
func (tm *TaskManager) Received() []string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return append([]string(nil), tm.received...)
}

// SendTo ships records to a peer TaskManager over the data plane, encoded
// with THIS TaskManager's data-ssl setting.
func (tm *TaskManager) SendTo(peerDataAddr string, records []string) error {
	conn, err := tm.env.Fabric.Dial(peerDataAddr, dataSecurity(tm.conf), tm.env.Scale)
	if err != nil {
		return fmt.Errorf("miniflink: taskmanager %s: dial peer %s: %w", tm.id, peerDataAddr, err)
	}
	return MethodExchange.Call(conn, ExchangeReq{Records: records})
}

func (tm *TaskManager) deploySlot(req *DeploySlotReq) error {
	slots := tm.conf.GetInt(ParamTaskSlots)
	if req.SlotIndex >= slots {
		return fmt.Errorf("miniflink: taskmanager %s has no slot %d (configured %d slots)",
			tm.id, req.SlotIndex, slots)
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if task, busy := tm.deployed[req.SlotIndex]; busy {
		return fmt.Errorf("miniflink: taskmanager %s slot %d already runs task %d", tm.id, req.SlotIndex, task)
	}
	tm.deployed[req.SlotIndex] = req.TaskIndex
	return nil
}

func (tm *TaskManager) checkpointBarrier(*CheckpointReq) (CheckpointAck, error) {
	tm.mu.Lock()
	tasks := len(tm.deployed)
	tm.mu.Unlock()
	return CheckpointAck{
		TMID:    tm.id,
		Backend: tm.conf.Get(ParamStateBackend),
		Tasks:   tasks,
	}, nil
}

func (tm *TaskManager) exchange(req *ExchangeReq) error {
	tm.mu.Lock()
	tm.received = append(tm.received, req.Records...)
	tm.mu.Unlock()
	return nil
}

// schema builds the registry once; every App() and every execution shares it.
var schema = sync.OnceValue(NewRegistry)
