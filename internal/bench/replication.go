package bench

import (
	"repro/internal/kinetic"
	"repro/internal/testbed"
	"repro/internal/ycsb"
)

// runReplicationWrites replays a write-only trace against an
// nReplicas-of-nReplicas HDD cluster, where positioning time
// dominates, so the replay isolates the replicated write path.
func runReplicationWrites(s Scale, nReplicas int) (*Metrics, error) {
	cluster, err := testbed.Start(testbed.Options{
		Drives:   nReplicas,
		Replicas: nReplicas,
		Enclave:  true,
		Media:    func(int) kinetic.MediaModel { return kinetic.NewHDDMedia(1.0) },
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	d, err := NewDriver(cluster, s.Clients)
	if err != nil {
		return nil, err
	}
	keys, ops, err := ycsb.Generate(ycsb.Config{
		Workload:       ycsb.WorkloadA,
		RecordCount:    s.DiskRecordCount,
		OperationCount: s.DiskOpCount,
		Seed:           7,
	})
	if err != nil {
		return nil, err
	}
	// Write path only: every trace operation becomes an update.
	for i := range ops {
		ops[i].Type = ycsb.OpUpdate
	}
	if err := d.Load(keys, 1024, nil); err != nil {
		return nil, err
	}
	return d.Replay(ReplayConfig{Ops: ops, ValueSize: 1024})
}
