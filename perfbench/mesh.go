package main

// meshNodes are the replication addresses and per-node flags of the two
// mesh_join nodes.
type meshNodes struct {
	replA, replB string
}

func newMeshNodes() (*meshNodes, error) {
	a, err := freeAddr()
	if err != nil {
		return nil, err
	}
	b, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &meshNodes{replA: a, replB: b}, nil
}

func (m *meshNodes) argsA() []string {
	return []string{"-node-id", "1", "-replication", m.replA, "-peers", m.replB}
}

func (m *meshNodes) argsB() []string {
	return []string{"-node-id", "2", "-replication", m.replB, "-peers", m.replA}
}

// meshJoin runs mesh_join against two stock servers.
func (b *bench) meshJoin() (*report, error) {
	m, err := newMeshNodes()
	if err != nil {
		return nil, err
	}
	a, setup, err := b.measureSetup(func() (*server, error) { return b.startStock(b.pristine, m.argsA()...) })
	if err != nil {
		return nil, err
	}
	defer a.stop()
	d, err := b.driveMesh(a, func() (*server, error) { return b.startStock("", m.argsB()...) }, false)
	if d != nil {
		defer d.close()
	}
	if err != nil {
		return reportOf(d), err
	}
	return d.endToEnd(setup, 0, a.peakRSS()+d.nodeB.peakRSS()), nil
}
