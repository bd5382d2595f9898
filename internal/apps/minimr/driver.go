package minimr

import (
	"fmt"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// JobHistoryServer records job completion events.
type JobHistoryServer struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server

	mu   sync.Mutex
	jobs map[string]string // job ID -> final status
}

// HistoryEvent records one job's terminal status.
type HistoryEvent struct {
	JobID  string
	Status string
}

// HistoryQuery looks a job up.
type HistoryQuery struct {
	JobID string
}

// JobHistoryServer IPC methods.
var (
	MethodRecord     = rpcsim.Command[HistoryEvent]{Name: "record"}
	MethodArchive    = rpcsim.Command[rpcsim.Empty]{Name: "archive"}
	MethodGetHistory = rpcsim.Method[HistoryQuery, HistoryEvent]{Name: "get"}
)

var jobHistoryRPC rpcsim.Service[JobHistoryServer]

func init() {
	rpcsim.HandleCommand(&jobHistoryRPC, MethodRecord, (*JobHistoryServer).record)
	rpcsim.HandleCommand(&jobHistoryRPC, MethodArchive, (*JobHistoryServer).archive)
	rpcsim.Handle(&jobHistoryRPC, MethodGetHistory, (*JobHistoryServer).get)
}

// StartJobHistoryServer boots the history server at its configured address.
func StartJobHistoryServer(env *harness.Env, conf *confkit.Conf) (*JobHistoryServer, error) {
	env.RT.StartInit(TypeJobHistory)
	defer env.RT.StopInit()
	jhs := &JobHistoryServer{env: env, conf: conf.RefToClone(), jobs: make(map[string]string)}
	_ = jhs.conf.GetTicks(ParamHistoryMaxAge)
	addr := jhs.conf.Get(ParamHistoryAddress)
	srv, err := common.ServeIPC(env.Fabric, addr, jhs.conf, env.Scale,
		common.SecurityFromConf(jhs.conf), jobHistoryRPC.Bind("minimr: job history", jhs))
	if err != nil {
		return nil, fmt.Errorf("minimr: start job history server: %w", err)
	}
	jhs.srv = srv
	return jhs, nil
}

// Stop shuts the history server down.
func (jhs *JobHistoryServer) Stop() { jhs.srv.Close() }

func (jhs *JobHistoryServer) record(ev *HistoryEvent) error {
	jhs.mu.Lock()
	jhs.jobs[ev.JobID] = ev.Status
	jhs.mu.Unlock()
	return nil
}

// archive moves old job history away: a deliberately slow admin RPC that
// exercises the IPC timeout/keepalive machinery.
func (jhs *JobHistoryServer) archive(*rpcsim.Empty) error {
	jhs.env.Scale.Sleep(600)
	return nil
}

func (jhs *JobHistoryServer) get(q *HistoryQuery) (HistoryEvent, error) {
	jhs.mu.Lock()
	status, ok := jhs.jobs[q.JobID]
	jhs.mu.Unlock()
	if !ok {
		return HistoryEvent{}, fmt.Errorf("minimr: job %s not in history", q.JobID)
	}
	return HistoryEvent{JobID: q.JobID, Status: status}, nil
}

// Job drives one MapReduce job from the client (unit-test) side, the
// MiniMRCluster analog: it starts map tasks per the CLIENT's map count,
// reduce tasks per the CLIENT's reduce count, runs the reduces, and
// performs the job-level commit with the CLIENT's committer version.
type Job struct {
	env   *harness.Env
	conf  *confkit.Conf
	store *OutputStore
	maps  []*MapTask
}

// NewJob prepares a job over the unit test's configuration object.
func NewJob(env *harness.Env, conf *confkit.Conf, store *OutputStore) *Job {
	return &Job{env: env, conf: conf, store: store}
}

// Run executes the job on input words, committing under outDir. It returns
// the first task or commit error.
func (j *Job) Run(input []string, outDir string) error {
	maps := j.conf.GetInt(ParamJobMaps)
	reduces := j.conf.GetInt(ParamJobReduces)
	if maps < 1 || reduces < 1 {
		return fmt.Errorf("minimr: job with %d maps and %d reduces", maps, reduces)
	}

	// Split the input across map tasks.
	shards := make([][]string, maps)
	for i, word := range input {
		s := int64(i) % maps
		shards[s] = append(shards[s], word)
	}
	for i := int64(0); i < maps; i++ {
		mt, err := StartMapTask(j.env, j.conf, i, shards[i])
		if err != nil {
			return err
		}
		j.maps = append(j.maps, mt)
		j.env.Defer(mt.Stop)
	}

	for r := int64(0); r < reduces; r++ {
		rt, err := StartReduceTask(j.env, j.conf, r, j.store)
		if err != nil {
			return err
		}
		if err := rt.Run(outDir); err != nil {
			return err
		}
	}
	return j.commitJob(outDir)
}

// commitJob is the job-level committer: with algorithm v1 it promotes task
// files staged under _temporary; with v2 there is nothing to do. A v1 task
// paired with a v2 job committer leaves output stranded in _temporary —
// the Table 3 committer finding.
func (j *Job) commitJob(outDir string) error {
	if j.conf.Get(ParamCommitterVersion) != "1" {
		return nil
	}
	temp := outDir + "/_temporary/"
	for _, path := range j.store.List(temp) {
		name := path[len(temp):]
		if !j.store.Rename(path, outDir+"/"+name) {
			return fmt.Errorf("minimr: job commit: cannot promote %s", path)
		}
	}
	return nil
}

// MapTasks exposes the started map tasks (for the §7.1 trap test).
func (j *Job) MapTasks() []*MapTask { return j.maps }

// VerifyOutput checks the committed output against expectations derived
// from the CLIENT's configuration: file names (compression suffix, reduce
// count) and merged word counts.
func (j *Job) VerifyOutput(input []string, outDir string) error {
	reduces := j.conf.GetInt(ParamJobReduces)
	merged := make(map[string]int)
	for r := int64(0); r < reduces; r++ {
		name := OutputName(j.conf, r)
		counts, err := ReadOutput(j.store, outDir+"/"+name)
		if err != nil {
			return err
		}
		for w, n := range counts {
			merged[w] += n
		}
	}
	want := make(map[string]int, len(input))
	for _, w := range input {
		want[w]++
	}
	if len(merged) != len(want) {
		return fmt.Errorf("minimr: output has %d distinct words, want %d", len(merged), len(want))
	}
	for w, n := range want {
		if merged[w] != n {
			return fmt.Errorf("minimr: output count for %q is %d, want %d", w, merged[w], n)
		}
	}
	return nil
}
