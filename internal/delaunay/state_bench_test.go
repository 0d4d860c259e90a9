package delaunay

import "testing"

// checkpointCadence mirrors cmd/ridtd's default -checkpoint-every: a
// capture every 16 rounds bounds replay-on-restore to at most 16 rounds
// of lost work, a small fraction of a build since rounds grow
// geometrically.
const checkpointCadence = 16

// BenchmarkCheckpointOverhead prices the checkpoint work on the
// publisher's critical path at the default cadence, per round: every op
// publishes (BenchmarkSnapshotPublish) and every checkpointCadence-th,
// starting with the first, also captures the completed 16Ki-point build,
// the largest capture of a build. Encoding and file I/O happen on the
// saver goroutine and are priced separately (BenchmarkCheckpointWrite in
// internal/checkpoint). ns/op tends to publish + capture/16 as b.N grows;
// at -benchtime=10x one capture falls on 10 ops, 1.6 times its share.
// Budget: ns/op stays under 5% of the per-round publisher loop (step +
// collect + publish), the ns/round that BenchmarkSnapshotLiveRun/
// engine=live reports; BENCH_checkpoint.json records the measured share.
func BenchmarkCheckpointOverhead(b *testing.B) {
	lv := benchLive(b, 1<<14, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv.publish()
		if i%checkpointCadence == 0 {
			st := lv.CaptureState()
			_ = st
		}
	}
}
