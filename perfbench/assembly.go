package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/device/msgplat"
	"metacomm/internal/device/pbx"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
	"metacomm/internal/um"
)

// This file assembles the stack metacomm.Start builds for metacommd's
// defaults (gateway mode, group commit, startup synchronization), with
// timing wrappers around the public interfaces between its layers. The
// wiring is a copy; TestTracedAssemblyMatchesStart guards it against
// drifting from the product.

// stackConfig is the part of metacommd's configuration the benchmark
// varies.
type stackConfig struct {
	DataDir         string
	LTAPAddr        string
	ReplicationAddr string
	NodeID          uint32
	Peers           []string
}

// setupTimes are the timed public setup calls.
type setupTimes struct {
	AttachS float64 `json:"attach_s"`
	IndexS  float64 `json:"index_s"`
	SyncS   float64 `json:"sync_s"`
}

// stack is a running traced assembly.
type stack struct {
	rec        *recorder
	DIT        *directory.DIT
	UM         *um.UM
	Gateway    *ltap.Gateway
	PBX        *pbx.PBX
	MP         *msgplat.MP
	Library    *lexpress.Library
	Replicator *replica.Replicator
	LTAPAddr   string
	setup      setupTimes

	// PropagateRemote calls and their total wall time.
	propagations, propagateNs atomic.Uint64

	dirServer  *ldapserver.Server
	ltapServer *ldapserver.Server
	actionSrv  *ltap.ActionServer
	remote     *ltap.RemoteAction
	converters []device.Converter
	clients    []*ldapclient.Conn
	pools      []*ldapclient.Pool
	cache      *ltap.BeforeImageCache
}

func startStack(cfg stackConfig, rec *recorder) (*stack, error) {
	s := &stack{rec: rec}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	suffix, _ := dn.Parse("o=Lucent")
	if len(cfg.Peers) > 0 && cfg.NodeID == 0 {
		return nil, fmt.Errorf("peers need a node id")
	}

	s.DIT = directory.NewSegmented(mcschema.New(), 0)
	s.DIT.SetNodeID(cfg.NodeID)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := s.DIT.AttachJournalSet(directory.JournalSetConfig{
			Base: filepath.Join(cfg.DataDir, "directory.journal"),
			Mode: directory.SyncGroup, // metacommd's -journal-sync default
		}); err != nil {
			return nil, fmt.Errorf("replaying journal: %w", err)
		}
		s.setup.AttachS = time.Since(t0).Seconds()
	}
	t0 := time.Now()
	s.DIT.EnableIndexes(mcschema.AttrDefinityExtension, mcschema.AttrMailboxNumber,
		mcschema.AttrCN, mcschema.AttrTelephone, "objectClass")
	s.setup.IndexS = time.Since(t0).Seconds()
	suffixAttrs := directory.NewAttrs()
	suffixAttrs.Put("objectClass", mcschema.ClassOrganization)
	if err := s.DIT.Add(suffix, suffixAttrs); err != nil &&
		directory.CodeOf(err) != ldap.ResultEntryAlreadyExists {
		return nil, err
	}
	s.dirServer = ldapserver.NewServer(&tracedHandler{Handler: ldapserver.NewDITHandler(s.DIT), rec: rec, layer: "dir"})
	s.dirServer.AcceptLoop = ldapserver.AcceptLoopGoroutine
	dirAddr, err := s.dirServer.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if cfg.ReplicationAddr != "" || len(cfg.Peers) > 0 {
		s.Replicator = replica.NewReplicator(cfg.NodeID, s.DIT)
		if cfg.DataDir != "" {
			s.Replicator.SetCursorPath(filepath.Join(cfg.DataDir, "replication.cursors"))
		}
		for _, p := range cfg.Peers {
			s.Replicator.AddPeer(p)
		}
		if cfg.ReplicationAddr != "" {
			if _, err := s.Replicator.Serve(cfg.ReplicationAddr); err != nil {
				return nil, err
			}
		}
	}

	s.PBX = pbx.New()
	pbxAddr, err := s.PBX.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.MP = msgplat.New()
	mpAddr, err := s.MP.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	lib, err := lexpress.StandardLibrary()
	if err != nil {
		return nil, err
	}
	s.Library = lib

	// One administration session per device (metacommd's default), each
	// in a pool as metacomm.Start builds it.
	pbxPrimary, err := pbx.Dial(pbxAddr.String(), "metacomm")
	if err != nil {
		return nil, err
	}
	var pbxConv device.Converter = &tracedConverter{Converter: device.NewPool(pbxPrimary), rec: rec, name: "device.pbx"}
	s.converters = append(s.converters, pbxConv)
	mpPrimary, err := msgplat.Dial(mpAddr.String(), "metacomm")
	if err != nil {
		return nil, err
	}
	var mpConv device.Converter = &tracedConverter{Converter: device.NewPool(mpPrimary), rec: rec, name: "device.msgplat"}
	s.converters = append(s.converters, mpConv)
	pbxFilter, err := filter.NewDeviceFilter(pbxConv, lib)
	if err != nil {
		return nil, err
	}
	mpFilter, err := filter.NewDeviceFilter(mpConv, lib)
	if err != nil {
		return nil, err
	}

	backing, err := ldapclient.DialPool(dirAddr.String(), 0)
	if err != nil {
		return nil, err
	}
	s.pools = append(s.pools, backing)
	manager, err := um.New(um.Config{
		Suffix:        suffix,
		Backing:       &tracedLDAPClient{LDAPClient: backing, rec: rec},
		Library:       lib,
		Snapshot:      s.DIT.SnapshotAndSubscribeSeq,
		SnapshotRange: s.DIT.SnapshotRangeAndSubscribeSeq,
	})
	if err != nil {
		return nil, err
	}
	manager.AddDevice(pbxFilter)
	manager.AddDevice(mpFilter)
	s.UM = manager

	gwBacking, err := ldapclient.DialPool(dirAddr.String(), 0)
	if err != nil {
		return nil, err
	}
	s.pools = append(s.pools, gwBacking)
	s.actionSrv = ltap.NewActionServer(&tracedAction{Action: manager, rec: rec, name: "um.update"})
	actionAddr, err := s.actionSrv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if s.remote, err = ltap.DialAction(actionAddr.String()); err != nil {
		return nil, err
	}
	s.Gateway = ltap.NewGateway(&tracedBackend{Backend: gwBacking, rec: rec},
		&tracedAction{Action: s.remote, rec: rec, name: "ltap.action"})
	s.cache = ltap.NewBeforeImageCache(0)
	s.cache.AttachChangelog(s.DIT)
	s.Gateway.UseCache(s.cache)
	s.ltapServer = ldapserver.NewServer(&tracedHandler{Handler: s.Gateway, rec: rec, layer: "ltap", root: true})
	s.ltapServer.AcceptLoop = ldapserver.AcceptLoopGoroutine
	addr := cfg.LTAPAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ltapAddr, err := s.ltapServer.Start(addr)
	if err != nil {
		return nil, err
	}
	s.LTAPAddr = ltapAddr.String()

	umLTAP, err := ldapclient.Dial(s.LTAPAddr)
	if err != nil {
		return nil, err
	}
	s.clients = append(s.clients, umLTAP)
	manager.SetLTAP(umLTAP)
	quiesceConn, err := ldapclient.Dial(s.LTAPAddr)
	if err != nil {
		return nil, err
	}
	s.clients = append(s.clients, quiesceConn)
	manager.SetQuiesce(
		func() bool {
			_, err := quiesceConn.Extended(ltap.OIDQuiesceBegin, nil)
			return err == nil
		},
		func() { _, _ = quiesceConn.Extended(ltap.OIDQuiesceEnd, nil) },
	)
	if err := manager.Start(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if _, err := manager.SynchronizeAll(); err != nil {
		return nil, fmt.Errorf("initial synchronization: %w", err)
	}
	s.setup.SyncS = time.Since(t0).Seconds()

	if s.Replicator != nil {
		s.Replicator.OnApply = func(res directory.RemoteApplied) {
			t0 := time.Now()
			manager.PropagateRemote(res.DN.String(), recordOf(res.Old), recordOf(res.New))
			s.propagations.Add(1)
			s.propagateNs.Add(uint64(time.Since(t0)))
		}
		s.Replicator.Start()
	}
	ok = true
	return s, nil
}

func recordOf(a *directory.Attrs) lexpress.Record {
	if a == nil {
		return nil
	}
	rec := lexpress.NewRecord()
	for name, values := range a.Map() {
		rec.Set(name, values...)
	}
	return rec
}

// Close shuts the stack down in System.Close's order.
func (s *stack) Close() {
	if s.Replicator != nil {
		s.Replicator.Stop()
	}
	if s.UM != nil {
		s.UM.Stop()
	}
	for _, c := range s.converters {
		c.Close()
	}
	if s.ltapServer != nil {
		s.ltapServer.Close()
	}
	if s.remote != nil {
		s.remote.Close()
	}
	if s.actionSrv != nil {
		s.actionSrv.Close()
	}
	for _, c := range s.clients {
		c.Close()
	}
	for _, p := range s.pools {
		p.Close()
	}
	if s.cache != nil {
		s.cache.Close()
	}
	if s.dirServer != nil {
		s.dirServer.Close()
	}
	if s.DIT != nil {
		s.DIT.CloseJournal()
	}
	if s.PBX != nil {
		s.PBX.Close()
	}
	if s.MP != nil {
		s.MP.Close()
	}
}

// tracedHandler times an LDAP listener's operations. On the LTAP listener
// (root) each search or update opens an op.
type tracedHandler struct {
	ldapserver.Handler
	rec   *recorder
	layer string
	root  bool
}

func (h *tracedHandler) timed(name, dn string, call func() ldap.Result) ldap.Result {
	name = h.layer + "." + name
	t0 := time.Now()
	if h.root {
		id := h.rec.begin(dn)
		res := call()
		h.rec.end(dn, id, name, t0)
		return res
	}
	res := call()
	h.rec.record(name, dn, t0)
	return res
}

func (h *tracedHandler) Search(c *ldapserver.Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	return h.timed("search", req.BaseDN, func() ldap.Result { return h.Handler.Search(c, req, send) })
}

func (h *tracedHandler) Add(c *ldapserver.Conn, req *ldap.AddRequest) ldap.Result {
	return h.timed("write", req.DN, func() ldap.Result { return h.Handler.Add(c, req) })
}

func (h *tracedHandler) Delete(c *ldapserver.Conn, req *ldap.DeleteRequest) ldap.Result {
	return h.timed("write", req.DN, func() ldap.Result { return h.Handler.Delete(c, req) })
}

func (h *tracedHandler) Modify(c *ldapserver.Conn, req *ldap.ModifyRequest) ldap.Result {
	return h.timed("write", req.DN, func() ldap.Result { return h.Handler.Modify(c, req) })
}

// tracedBackend times the gateway's reads of the backing directory.
type tracedBackend struct {
	ltap.Backend
	rec *recorder
}

func (b *tracedBackend) Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error) {
	t0 := time.Now()
	es, err := b.Backend.Search(req)
	b.rec.record("ltap.backend", req.BaseDN, t0)
	return es, err
}

// tracedAction times the trigger action: the gateway's call over the
// action wire, or the UM's OnUpdate behind the action server.
type tracedAction struct {
	ltap.Action
	rec  *recorder
	name string
}

func (a *tracedAction) OnUpdate(ev ltap.Event) ldap.Result {
	t0 := time.Now()
	res := a.Action.OnUpdate(ev)
	a.rec.record(a.name, ev.DN, t0)
	if a.name == "um.update" && a.rec.on.Load() {
		a.rec.capture(ev)
	}
	return res
}

// tracedLDAPClient times the UM's calls into the backing directory.
type tracedLDAPClient struct {
	filter.LDAPClient
	rec *recorder
}

func (c *tracedLDAPClient) Search(req *ldap.SearchRequest) ([]*ldapclient.Entry, error) {
	t0 := time.Now()
	es, err := c.LDAPClient.Search(req)
	c.rec.record("um.backing", req.BaseDN, t0)
	return es, err
}

func (c *tracedLDAPClient) Add(dn string, attrs []ldap.Attribute) error {
	t0 := time.Now()
	err := c.LDAPClient.Add(dn, attrs)
	c.rec.record("um.backing", dn, t0)
	return err
}

func (c *tracedLDAPClient) Modify(dn string, changes []ldap.Change) error {
	t0 := time.Now()
	err := c.LDAPClient.Modify(dn, changes)
	c.rec.record("um.backing", dn, t0)
	return err
}

func (c *tracedLDAPClient) Delete(dn string) error {
	t0 := time.Now()
	err := c.LDAPClient.Delete(dn)
	c.rec.record("um.backing", dn, t0)
	return err
}

// tracedConverter times a device filter's applies. Device records carry
// the person's number in their key (extension 3-NNNNN, mailbox NNNNN), which
// names the DN the apply belongs to.
type tracedConverter struct {
	device.Converter
	rec  *recorder
	name string
}

func dnOfKey(key string) string {
	if i := strings.LastIndexByte(key, '-'); i >= 0 {
		key = key[i+1:]
	}
	n, err := strconv.Atoi(key)
	if err != nil {
		return ""
	}
	return personDN(n)
}

func dnOfRecord(rec lexpress.Record) string {
	if k := rec.First(pbx.KeyField); k != "" {
		return dnOfKey(k)
	}
	return dnOfKey(rec.First(msgplat.KeyField))
}

func (c *tracedConverter) Add(rec lexpress.Record) (lexpress.Record, error) {
	t0 := time.Now()
	out, err := c.Converter.Add(rec)
	c.rec.record(c.name, dnOfRecord(rec), t0)
	return out, err
}

func (c *tracedConverter) Modify(key string, rec lexpress.Record) (lexpress.Record, error) {
	t0 := time.Now()
	out, err := c.Converter.Modify(key, rec)
	c.rec.record(c.name, dnOfKey(key), t0)
	return out, err
}

func (c *tracedConverter) Delete(key string) error {
	t0 := time.Now()
	err := c.Converter.Delete(key)
	c.rec.record(c.name, dnOfKey(key), t0)
	return err
}
