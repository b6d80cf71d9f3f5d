package directory

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

// BenchmarkReplayFormats measures cold-attach replay of a compacted
// 8-segment v2 journal set, sequentially and on a two-worker pool, and
// reports per-record decode+apply cost. The replay pool is
// min(GOMAXPROCS, segments), so each point pins GOMAXPROCS to its worker
// count. This is the unit-level check behind experiment E22; run benchscale
// for the full-population numbers.
func BenchmarkReplayFormats(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("v2-w%d", workers), func(b *testing.B) {
			dir := b.TempDir()
			base := filepath.Join(dir, "dir.journal")
			d := NewSegmented(nil, 8)
			if _, err := d.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncNone}); err != nil {
				b.Fatal(err)
			}
			const n = 20000
			if err := d.Add(mustDN("o=Lucent"), AttrsFrom(map[string][]string{"objectClass": {"organization"}})); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				attrs := AttrsFrom(map[string][]string{
					"objectClass": {"person"}, "cn": {fmt.Sprintf("u%07d", i)},
					"sn": {fmt.Sprintf("User%07d", i)}, "telephoneNumber": {fmt.Sprintf("+1 908 555 %04d", i%10000)},
					"definityExtension": {fmt.Sprintf("%07d", i)}, "mailboxNumber": {fmt.Sprintf("%07d", i)}})
				if err := d.Add(mustDN(fmt.Sprintf("cn=u%07d,o=Lucent", i)), attrs); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Compact(); err != nil {
				b.Fatal(err)
			}
			if err := d.CloseJournal(); err != nil {
				b.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cold := NewSegmented(nil, 8)
				if _, err := cold.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncNone}); err != nil {
					b.Fatal(err)
				}
				if cold.Len() != n+1 {
					b.Fatalf("len %d", cold.Len())
				}
				b.SetBytes(int64(cold.JournalStats().ReplayedBytes))
				if err := cold.CloseJournal(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
		})
	}
}
