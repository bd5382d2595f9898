package minihdfs

import (
	"bytes"
	"fmt"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// Client is the DFS client library. It is not a node: unit tests use it
// directly, so its configuration object belongs to the unit test — which
// ZebraConf treats as a "client" pseudo node (paper §6.1).
type Client struct {
	env    *harness.Env
	conf   *confkit.Conf
	nnAddr string
	nn     *rpcsim.Conn
}

// NewClient dials the NameNode with the client's configuration.
func NewClient(env *harness.Env, conf *confkit.Conf, nnAddr string) (*Client, error) {
	sec := common.SecurityFromConf(conf)
	sec.RequireToken = conf.GetBool(ParamBlockAccessToken)
	conn, err := common.DialIPC(env.Fabric, nnAddr, conf, env.Scale, sec)
	if err != nil {
		return nil, fmt.Errorf("minihdfs: client cannot reach namenode: %w", err)
	}
	_ = conf.GetInt(ParamClientRetries)
	_ = conf.GetInt(ParamReadPrefetch)
	_ = conf.GetInt(ParamStreamBuffer)
	return &Client{env: env, conf: conf, nnAddr: nnAddr, nn: conn}, nil
}

// transferSecurity derives the client's data-transfer profile.
func (c *Client) transferSecurity() rpcsim.Security {
	return rpcsim.Security{
		Protection: c.conf.Get(ParamDataTransferProtect),
		Encrypt:    c.conf.GetBool(ParamEncryptDataTransfer),
		Key:        "data-transfer-key",
	}
}

// dialData dials a DataNode's client-facing endpoint with the client's
// socket timeout.
func (c *Client) dialData(addr string) (*rpcsim.Conn, error) {
	conn, err := c.env.Fabric.Dial(addr, c.transferSecurity(), c.env.Scale)
	if err != nil {
		return nil, err
	}
	conn.SetTimeoutTicks(c.conf.GetTicks(ParamClientSocketTimeout))
	return conn, nil
}

// WriteFile creates path and writes data through the replication pipeline,
// splitting into blocks of the client's configured block size and
// checksumming each with the client's checksum settings. On a pipeline
// failure it consults dfs.client.block.write.replace-datanode-on-failure.
// enable — asking the NameNode for a replacement node when enabled.
func (c *Client) WriteFile(path string, data []byte) error {
	repl := int(c.conf.GetInt(ParamReplication))
	blockSize := c.conf.GetInt(ParamBlockSize)
	if blockSize <= 0 {
		return fmt.Errorf("minihdfs: client: invalid block size %d", blockSize)
	}
	if err := MethodCreate.Call(c.nn, CreateReq{Path: path, Replication: repl, BlockSize: blockSize}); err != nil {
		return err
	}
	for off := int64(0); off == 0 || off < int64(len(data)); off += blockSize {
		end := off + blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if err := c.writeBlock(path, data[off:end]); err != nil {
			return err
		}
	}
	return MethodComplete.Call(c.nn, PathReq{Path: path})
}

func (c *Client) writeBlock(path string, chunk []byte) error {
	alloc, err := MethodAddBlock.Call(c.nn, AddBlockReq{Path: path, Len: int64(len(chunk))})
	if err != nil {
		return err
	}
	sums, err := common.ComputeChecksums(chunk,
		c.conf.Get(ParamChecksumType), c.conf.GetInt(ParamBytesPerChecksum))
	if err != nil {
		return err
	}
	req := WriteBlockReq{BlockID: alloc.BlockID, Data: chunk, Sums: sums}
	if len(alloc.PeerAddrs) > 1 {
		req.PeerAddrs = alloc.PeerAddrs[1:]
	}
	err = c.sendToPipeline(alloc.DataAddrs[0], &req)
	if err == nil {
		return nil
	}
	// Pipeline head failure: optionally replace the DataNode.
	if !c.conf.GetBool(ParamReplaceDNOnFailure) {
		if len(alloc.DataAddrs) > 1 {
			// Continue with the remaining pipeline nodes.
			req.PeerAddrs = alloc.PeerAddrs[2:]
			return c.sendToPipeline(alloc.DataAddrs[1], &req)
		}
		return err
	}
	repl, aerr := MethodAdditionalDN.Call(c.nn, AdditionalDNReq{Path: path, Exclude: alloc.DNIDs})
	if aerr != nil {
		return fmt.Errorf("minihdfs: client: pipeline failed (%v) and no replacement datanode: %w", err, aerr)
	}
	req.PeerAddrs = nil
	return c.sendToPipeline(repl.DataAddr, &req)
}

func (c *Client) sendToPipeline(dataAddr string, req *WriteBlockReq) error {
	conn, err := c.dialData(dataAddr)
	if err != nil {
		return err
	}
	return MethodWriteBlock.Call(conn, *req)
}

// Append reopens path and writes data as additional blocks, checksummed
// with the client's settings like WriteFile.
func (c *Client) Append(path string, data []byte) error {
	if err := MethodAppend.Call(c.nn, PathReq{Path: path}); err != nil {
		return err
	}
	blockSize := c.conf.GetInt(ParamBlockSize)
	if blockSize <= 0 {
		return fmt.Errorf("minihdfs: client: invalid block size %d", blockSize)
	}
	for off := int64(0); off < int64(len(data)); off += blockSize {
		end := off + blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if err := c.writeBlock(path, data[off:end]); err != nil {
			return err
		}
	}
	return MethodComplete.Call(c.nn, PathReq{Path: path})
}

// ReadFile reads path back, verifying every block's checksums with the
// client's own checksum configuration.
func (c *Client) ReadFile(path string) ([]byte, error) {
	locs, err := MethodGetBlockLocations.Call(c.nn, BlockLocationsReq{Path: path})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, b := range locs.Blocks {
		if len(b.DataAddrs) == 0 {
			return nil, fmt.Errorf("minihdfs: client: block %d of %s has no live replicas", b.BlockID, path)
		}
		// Fail over across replica holders: an unreachable DataNode is not
		// fatal while another replica exists. A checksum mismatch IS fatal
		// — it signals misconfiguration, not node loss.
		var lastErr error
		read := false
		for _, addr := range b.DataAddrs {
			conn, err := c.dialData(addr)
			if err != nil {
				lastErr = err
				continue
			}
			resp, err := MethodReadBlock.Call(conn, ReadBlockReq{BlockID: b.BlockID})
			if err != nil {
				lastErr = err
				continue
			}
			if err := common.VerifyChecksums(resp.Data, resp.Sums,
				c.conf.Get(ParamChecksumType), c.conf.GetInt(ParamBytesPerChecksum)); err != nil {
				return nil, fmt.Errorf("minihdfs: client: block %d of %s: %w", b.BlockID, path, err)
			}
			buf.Write(resp.Data)
			read = true
			break
		}
		if !read {
			return nil, fmt.Errorf("minihdfs: client: block %d of %s unreadable: %w", b.BlockID, path, lastErr)
		}
	}
	return buf.Bytes(), nil
}

// Delete removes a file.
func (c *Client) Delete(path string) error {
	return MethodDelete.Call(c.nn, PathReq{Path: path})
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	return MethodMkdir.Call(c.nn, PathReq{Path: path})
}

// List lists a directory.
func (c *Client) List(path string) ([]string, error) {
	resp, err := MethodList.Call(c.nn, PathReq{Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Stats fetches the public cluster statistics.
func (c *Client) Stats() (StatsResp, error) {
	return MethodStats.Call(c.nn, rpcsim.Empty{})
}

// DatanodeReport fetches the public per-DataNode report.
func (c *Client) DatanodeReport() ([]DNInfo, error) {
	resp, err := MethodDatanodeReport.Call(c.nn, rpcsim.Empty{})
	if err != nil {
		return nil, err
	}
	return resp.Nodes, nil
}

// ReportBadBlocks flags blocks as corrupt (public client protocol).
func (c *Client) ReportBadBlocks(ids []int64) error {
	return MethodReportBadBlocks.Call(c.nn, BadBlocksReq{BlockIDs: ids})
}

// ListCorruptFileBlocks lists corrupt blocks, truncated by the NameNode's
// configured maximum.
func (c *Client) ListCorruptFileBlocks() (ListCorruptResp, error) {
	return MethodListCorrupt.Call(c.nn, rpcsim.Empty{})
}

// BlockIDs returns the block IDs of a file, in order.
func (c *Client) BlockIDs(path string) ([]int64, error) {
	locs, err := MethodGetBlockLocations.Call(c.nn, BlockLocationsReq{Path: path})
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(locs.Blocks))
	for i, b := range locs.Blocks {
		ids[i] = b.BlockID
	}
	return ids, nil
}

// SetStoragePolicy tags a file for the Mover (public client API).
func (c *Client) SetStoragePolicy(path, policy string) error {
	return MethodSetStoragePolicy.Call(c.nn, PolicyReq{Path: path, Policy: policy})
}

// CreateSnapshot snapshots root under the given name.
func (c *Client) CreateSnapshot(root, name string) error {
	return MethodCreateSnapshot.Call(c.nn, SnapshotReq{Root: root, Name: name})
}

// SnapshotDiff diffs path (root itself or a descendant, if the client's
// configuration believes descendants are allowed) against a snapshot.
func (c *Client) SnapshotDiff(root, name, path string) ([]string, error) {
	if path != root && !c.conf.GetBool(ParamSnapRootDescendant) {
		// The client's own configuration forbids descendant diffs; fall
		// back to the snapshot root, as the real client shell does.
		path = root
	}
	resp, err := MethodSnapshotDiff.Call(c.nn, SnapshotReq{Root: root, Name: name, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Changed, nil
}

// SaveNamespace triggers the slow namespace-image save (admin API).
func (c *Client) SaveNamespace() (ImageResp, error) {
	return MethodSaveNamespace.Call(c.nn, rpcsim.Empty{})
}

// GetImage fetches a namespace image without the save cost.
func (c *Client) GetImage() (ImageResp, error) {
	return MethodGetImage.Call(c.nn, rpcsim.Empty{})
}

// Fsck connects to the NameNode web endpoint — resolved with the CLIENT's
// http policy and address configuration — and fetches cluster health
// (the DFSck tool, Table 3: dfs.http.policy).
func (c *Client) Fsck() (StatsResp, error) {
	host, err := WebHostFor(c.conf, c.nnAddr)
	if err != nil {
		return StatsResp{}, err
	}
	conn, err := common.DialWeb(c.env.Fabric, ParamHTTPPolicy, host, c.conf, c.env.Scale)
	if err != nil {
		return StatsResp{}, fmt.Errorf("minihdfs: fsck cannot connect to the NameNode web server: %w", err)
	}
	return MethodFsck.Call(conn, rpcsim.Empty{})
}
