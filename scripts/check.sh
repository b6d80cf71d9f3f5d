#!/bin/sh
# Tier-1 check, for environments without make: build, tests, vet, the race
# detector over the concurrent core, and a one-iteration benchmark smoke so
# the experiment harness cannot rot (see Makefile `check`).
set -eux
cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
go test -race -count=1 ./internal/directory/... ./internal/um/... ./internal/ltap/... ./internal/filter/... ./internal/device/... ./internal/ber/... ./internal/ldapserver/... ./internal/ldapclient/... ./internal/replica/...
# Multi-master replication smoke: a two-node mesh, a write accepted on each
# side, and a conflicting same-DN write — both trees must converge.
go test -run TestMultiMasterWritesAnywhereConverge -count=1 .
# Group-commit smoke: three concurrent writers against a SyncGroup journal
# must produce at least one multi-record commit group (batch > 1 observed).
go test -run TestJournalGroupCommitBatches -count=1 ./internal/directory/
# Journal re-fold smoke: a set written under one segment count must come
# back under another with identical entry state, including after a crash
# at every stage of the re-fold's compaction; foreign data (a JSON segment
# file, a single-file journal) must be refused and left untouched.
go test -run 'TestSegmentCountChangeReplay|TestOneSegmentSetRefoldsIntoEight|TestMigrationCrash|TestAttachRefusesForeignData' -count=1 ./internal/directory/
go test -fuzz=FuzzDecode -fuzztime=10s ./internal/ber/
go test -fuzz=FuzzParse -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzCompilePattern -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzJournalV2Record -fuzztime=10s ./internal/directory/
go test -fuzz=FuzzReplicationStream -fuzztime=10s ./internal/replica/
go test -run '^$' -bench . -benchtime=1x .
# Wire-path load-generator smoke: spawn an in-process system, drive it for
# two seconds, and verify the machine-readable benchmark record is written.
go run ./cmd/loadgen -spawn -conns 64 -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_smoke.json
test -s /tmp/bench_wire_smoke.json
# Epoll accept-loop smoke: the event-loop serving path end to end, with a
# mostly-idle connection pool held alongside the active workers (falls back
# to goroutine mode off Linux, so this stays portable).
go run ./cmd/loadgen -spawn -accept-loop epoll -conns 32 -idle-conns 96 -idle-interval 1s -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_epoll_smoke.json
test -s /tmp/bench_wire_epoll_smoke.json
# Scale-harness smoke at 10k entries: segmented populate, online compaction
# under load (the tool exits nonzero on any rejected write), journal replay.
go run ./cmd/benchscale -pops 10000 -ops 200 -out /tmp/bench_scale_smoke.json
test -s /tmp/bench_scale_smoke.json
# Replication-harness smoke: a 1/2-node read sweep and a small join catch-up,
# with the machine-readable E23 record written and non-empty.
go run ./cmd/benchreplica -max-nodes 2 -conns 16 -duration 1s -entries 200 -join-entries 2000 -out /tmp/bench_replica_smoke.json
test -s /tmp/bench_replica_smoke.json
