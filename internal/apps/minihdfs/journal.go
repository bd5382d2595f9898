package minihdfs

import (
	"fmt"
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// JournalNode stores edit-log segments for NameNode high availability. A
// segment is in progress until finalized; whether in-progress edits may be
// served to a tailing (standby) NameNode is governed by
// dfs.ha.tail-edits.in-progress — on both sides, which is what makes the
// parameter heterogeneous-unsafe (Table 3: "JournalNode declines
// NameNode's request to fetch journaled edits").
type JournalNode struct {
	env  *harness.Env
	conf *confkit.Conf
	srv  *rpcsim.Server
	rpc  rpcsim.Handler

	mu        sync.Mutex
	segments  map[int64][]string
	finalized map[int64]bool
}

// StartJournalNode boots a JournalNode bound to addr.
func StartJournalNode(env *harness.Env, conf *confkit.Conf, addr string) (*JournalNode, error) {
	env.RT.StartInit(TypeJournalNode)
	defer env.RT.StopInit()

	jn := &JournalNode{
		env:       env,
		conf:      conf.RefToClone(),
		segments:  make(map[int64][]string),
		finalized: make(map[int64]bool),
	}
	jn.rpc = journalNodeRPC.Bind("minihdfs: journalnode", jn)
	sec := common.SecurityFromConf(jn.conf)
	srv, err := common.ServeIPC(env.Fabric, addr, jn.conf, env.Scale, sec, jn.rpc)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: start journalnode: %w", err)
	}
	jn.srv = srv
	return jn, nil
}

// Stop shuts the JournalNode down.
func (jn *JournalNode) Stop() { jn.srv.Close() }

func (jn *JournalNode) journal(req *JournalReq) error {
	jn.mu.Lock()
	jn.segments[req.SegmentID] = append(jn.segments[req.SegmentID], req.Edits...)
	jn.mu.Unlock()
	return nil
}

func (jn *JournalNode) finalizeSegment(req *SegmentReq) error {
	jn.mu.Lock()
	jn.finalized[req.SegmentID] = true
	jn.mu.Unlock()
	return nil
}

// getEdits serves edits after SinceTxn. Requests for in-progress segments
// are honoured only when this JournalNode's own configuration enables
// in-progress tailing.
func (jn *JournalNode) getEdits(req *GetEditsReq) (GetEditsResp, error) {
	serveInProgress := jn.conf.GetBool(ParamTailEditsInProgress)
	if req.InProgressOK && !serveInProgress {
		return GetEditsResp{}, fmt.Errorf(
			"minihdfs: JournalNode declines request for in-progress edits: %s is disabled",
			ParamTailEditsInProgress)
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	var out []string
	seen := int64(0)
	for seg := int64(0); seg < 1024; seg++ {
		edits, ok := jn.segments[seg]
		if !ok {
			continue
		}
		if !jn.finalized[seg] && !req.InProgressOK {
			continue
		}
		for _, e := range edits {
			seen++
			if seen > req.SinceTxn {
				out = append(out, e)
			}
		}
	}
	return GetEditsResp{Edits: out}, nil
}

// StandbyTailer models the standby NameNode's edit tailing client; its
// request mirrors its own dfs.ha.tail-edits.in-progress value.
type StandbyTailer struct {
	conf *confkit.Conf
	jn   *rpcsim.Conn
}

// NewStandbyTailer dials the JournalNode with the tailing NameNode's
// configuration. The caller must be inside the standby node's init window.
func NewStandbyTailer(env *harness.Env, conf *confkit.Conf, jnAddr string) (*StandbyTailer, error) {
	sec := common.SecurityFromConf(conf)
	conn, err := common.DialIPC(env.Fabric, jnAddr, conf, env.Scale, sec)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: standby cannot reach journalnode: %w", err)
	}
	return &StandbyTailer{conf: conf, jn: conn}, nil
}

// Tail fetches edits after sinceTxn, asking for in-progress segments when
// this node's configuration enables it.
func (st *StandbyTailer) Tail(sinceTxn int64) ([]string, error) {
	resp, err := MethodGetJournaledEdits.Call(st.jn, GetEditsReq{
		SinceTxn:     sinceTxn,
		InProgressOK: st.conf.GetBool(ParamTailEditsInProgress),
	})
	if err != nil {
		return nil, err
	}
	return resp.Edits, nil
}
