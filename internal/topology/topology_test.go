package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Pods:           2,
		RacksPerPod:    3,
		ServersPerRack: 4,
		SlotsPerServer: 8,
		LinkBps:        1.25e9, // 10 Gbps
		BufferBytes:    312e3,
		RackOversub:    5,
		PodOversub:     5,
	}
}

func mustTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tree, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tree
}

func TestValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := testConfig(); c.Pods = 0; return c }(),
		func() Config { c := testConfig(); c.LinkBps = 0; return c }(),
		func() Config { c := testConfig(); c.BufferBytes = 0; return c }(),
		func() Config { c := testConfig(); c.RackOversub = 0.5; return c }(),
		func() Config { c := testConfig(); c.NICBufferBytes = -1; return c }(),
	}
	// Every float field rejects NaN and both infinities: NaN fails every
	// comparison, so a "<= 0" test alone lets it through.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(*Config){
			func(c *Config) { c.LinkBps = v },
			func(c *Config) { c.BufferBytes = v },
			func(c *Config) { c.NICBufferBytes = v },
			func(c *Config) { c.RackOversub = v },
			func(c *Config) { c.PodOversub = v },
		} {
			c := testConfig()
			set(&c)
			bad = append(bad, c)
		}
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestCounts(t *testing.T) {
	tree := mustTree(t, testConfig())
	if got := tree.Servers(); got != 24 {
		t.Errorf("Servers = %d, want 24", got)
	}
	if got := tree.Racks(); got != 6 {
		t.Errorf("Racks = %d, want 6", got)
	}
	if got := tree.Pods(); got != 2 {
		t.Errorf("Pods = %d, want 2", got)
	}
	if got := tree.Slots(); got != 192 {
		t.Errorf("Slots = %d, want 192", got)
	}
	// Ports: 24 server-up + 6 rack-up + 24 rack-down + 2 pod-up +
	// 6 pod-down + 2 core-down = 64.
	if got := tree.NumPorts(); got != 64 {
		t.Errorf("NumPorts = %d, want 64", got)
	}
}

func TestCoordinates(t *testing.T) {
	tree := mustTree(t, testConfig())
	if got := tree.RackOfServer(0); got != 0 {
		t.Errorf("RackOfServer(0) = %d", got)
	}
	if got := tree.RackOfServer(5); got != 1 {
		t.Errorf("RackOfServer(5) = %d, want 1", got)
	}
	if got := tree.PodOfServer(13); got != 1 {
		t.Errorf("PodOfServer(13) = %d, want 1", got)
	}
	lo, hi := tree.ServersOfRack(2)
	if lo != 8 || hi != 12 {
		t.Errorf("ServersOfRack(2) = [%d,%d), want [8,12)", lo, hi)
	}
	lo, hi = tree.RacksOfPod(1)
	if lo != 3 || hi != 6 {
		t.Errorf("RacksOfPod(1) = [%d,%d), want [3,6)", lo, hi)
	}
	if got := tree.PodOfRack(4); got != 1 {
		t.Errorf("PodOfRack(4) = %d, want 1", got)
	}
}

func TestPortRates(t *testing.T) {
	tree := mustTree(t, testConfig())
	cfg := tree.Config()
	if got := tree.ServerUpPort(0).RateBps; got != cfg.LinkBps {
		t.Errorf("server up rate = %v", got)
	}
	// Rack uplink: 4 servers * link / 5 oversub.
	wantRack := cfg.LinkBps * 4 / 5
	if got := tree.RackUpPort(0).RateBps; got != wantRack {
		t.Errorf("rack up rate = %v, want %v", got, wantRack)
	}
	// Pod uplink: rackUp * 3 racks / 5.
	wantPod := wantRack * 3 / 5
	if got := tree.PodUpPort(0).RateBps; got != wantPod {
		t.Errorf("pod up rate = %v, want %v", got, wantPod)
	}
	// Down ports mirror their peers.
	if got := tree.RackDownPort(7).RateBps; got != cfg.LinkBps {
		t.Errorf("rack down rate = %v", got)
	}
	if got := tree.PodDownPort(2).RateBps; got != wantRack {
		t.Errorf("pod down rate = %v, want %v", got, wantRack)
	}
	if got := tree.CoreDownPort(1).RateBps; got != wantPod {
		t.Errorf("core down rate = %v, want %v", got, wantPod)
	}
}

func TestQueueCapacityPaperExample(t *testing.T) {
	// 10 Gbps port with 100 KB buffer -> 80 µs (paper §4.2.1).
	p := Port{RateBps: 1.25e9, BufferBytes: 100e3}
	if got, want := p.QueueCapacity(), 80e-6; got != want {
		t.Errorf("QueueCapacity = %v, want %v", got, want)
	}
	zero := Port{}
	if zero.QueueCapacity() != 0 {
		t.Error("zero-rate port should have zero capacity")
	}
}

func TestPathSameServer(t *testing.T) {
	tree := mustTree(t, testConfig())
	if p := tree.Path(3, 3); p != nil {
		t.Errorf("same-server path should be nil, got %d ports", len(p))
	}
}

func TestPathSameRack(t *testing.T) {
	tree := mustTree(t, testConfig())
	p := tree.Path(0, 1)
	if len(p) != 2 {
		t.Fatalf("same-rack path length = %d, want 2", len(p))
	}
	if p[0].Level != LevelServer || p[0].Dir != Up {
		t.Errorf("hop0 = %v/%v", p[0].Level, p[0].Dir)
	}
	if p[1].Level != LevelRack || p[1].Dir != Down {
		t.Errorf("hop1 = %v/%v", p[1].Level, p[1].Dir)
	}
}

func TestPathSamePod(t *testing.T) {
	tree := mustTree(t, testConfig())
	p := tree.Path(0, 5) // rack 0 -> rack 1, same pod
	if len(p) != 4 {
		t.Fatalf("same-pod path length = %d, want 4", len(p))
	}
	wantLevels := []Level{LevelServer, LevelRack, LevelPod, LevelRack}
	wantDirs := []Direction{Up, Up, Down, Down}
	for i := range p {
		if p[i].Level != wantLevels[i] || p[i].Dir != wantDirs[i] {
			t.Errorf("hop%d = %v/%v, want %v/%v", i, p[i].Level, p[i].Dir, wantLevels[i], wantDirs[i])
		}
	}
}

func TestPathCrossPod(t *testing.T) {
	tree := mustTree(t, testConfig())
	p := tree.Path(0, 23) // pod 0 -> pod 1
	if len(p) != 6 {
		t.Fatalf("cross-pod path length = %d, want 6", len(p))
	}
	wantLevels := []Level{LevelServer, LevelRack, LevelPod, LevelCore, LevelPod, LevelRack}
	wantDirs := []Direction{Up, Up, Up, Down, Down, Down}
	for i := range p {
		if p[i].Level != wantLevels[i] || p[i].Dir != wantDirs[i] {
			t.Errorf("hop%d = %v/%v, want %v/%v", i, p[i].Level, p[i].Dir, wantLevels[i], wantDirs[i])
		}
	}
}

func TestPathDelayCapacity(t *testing.T) {
	tree := mustTree(t, testConfig())
	// Same rack: server-up + rack-down, both at link rate.
	perLinkPort := tree.ServerUpPort(0).QueueCapacity()
	got := tree.PathDelayCapacity(0, 1)
	if want := 2 * perLinkPort; !close(got, want) {
		t.Errorf("same-rack delay cap = %v, want %v", got, want)
	}
	// Cross-pod paths are strictly worse.
	if cross := tree.PathDelayCapacity(0, 23); cross <= got {
		t.Errorf("cross-pod %v should exceed same-rack %v", cross, got)
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

// Property: paths are symmetric in length, contain no repeated port,
// start at the source NIC, and end at the destination's ToR down port.
func TestPathInvariantsProperty(t *testing.T) {
	tree := mustTree(t, testConfig())
	n := tree.Servers()
	f := func(a, b uint8) bool {
		src, dst := int(a)%n, int(b)%n
		if src == dst {
			return tree.Path(src, dst) == nil
		}
		p := tree.Path(src, dst)
		q := tree.Path(dst, src)
		if len(p) != len(q) || len(p)%2 != 0 {
			return false
		}
		seen := map[int]bool{}
		for _, port := range p {
			if seen[port.ID] {
				return false
			}
			seen[port.ID] = true
		}
		return p[0].ID == tree.ServerUpPort(src).ID &&
			p[len(p)-1].ID == tree.RackDownPort(dst).ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevelDirectionStrings(t *testing.T) {
	if LevelServer.String() != "server" || LevelRack.String() != "rack" ||
		LevelPod.String() != "pod" || LevelCore.String() != "core" {
		t.Error("bad Level strings")
	}
	if Level(99).String() == "" {
		t.Error("unknown level should still render")
	}
	if Up.String() != "up" || Down.String() != "down" {
		t.Error("bad Direction strings")
	}
}

// denseTable is the port table New built before the tree kept one
// template per family: a Port per ID, filled family by family.
func denseTable(cfg Config) []Port {
	nServers := cfg.Pods * cfg.RacksPerPod * cfg.ServersPerRack
	nRacks := cfg.Pods * cfg.RacksPerPod
	serverUpBase := 0
	rackUpBase := serverUpBase + nServers
	rackDownBase := rackUpBase + nRacks
	podUpBase := rackDownBase + nServers
	podDownBase := podUpBase + cfg.Pods
	coreDownBase := podDownBase + nRacks
	rackUpRate := cfg.LinkBps * float64(cfg.ServersPerRack) / cfg.RackOversub
	podUpRate := rackUpRate * float64(cfg.RacksPerPod) / cfg.PodOversub
	nicBuf := cfg.NICBufferBytes
	if nicBuf <= 0 {
		nicBuf = cfg.BufferBytes
	}
	ports := make([]Port, coreDownBase+cfg.Pods)
	for s := 0; s < nServers; s++ {
		ports[serverUpBase+s] = Port{ID: serverUpBase + s, Level: LevelServer, Dir: Up, RateBps: cfg.LinkBps, BufferBytes: nicBuf}
		ports[rackDownBase+s] = Port{ID: rackDownBase + s, Level: LevelRack, Dir: Down, RateBps: cfg.LinkBps, BufferBytes: cfg.BufferBytes}
	}
	for r := 0; r < nRacks; r++ {
		ports[rackUpBase+r] = Port{ID: rackUpBase + r, Level: LevelRack, Dir: Up, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}
		ports[podDownBase+r] = Port{ID: podDownBase + r, Level: LevelPod, Dir: Down, RateBps: rackUpRate, BufferBytes: cfg.BufferBytes}
	}
	for p := 0; p < cfg.Pods; p++ {
		ports[podUpBase+p] = Port{ID: podUpBase + p, Level: LevelPod, Dir: Up, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}
		ports[coreDownBase+p] = Port{ID: coreDownBase + p, Level: LevelCore, Dir: Down, RateBps: podUpRate, BufferBytes: cfg.BufferBytes}
	}
	return ports
}

// For random valid configurations, every port the family templates
// stamp out — by ID, through the six family accessors and along every
// path — equals the dense table's, field by field and in queue capacity.
func TestPortTemplatesMatchDenseTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		cfg := Config{
			Pods:           1 + rng.Intn(4),
			RacksPerPod:    1 + rng.Intn(5),
			ServersPerRack: 1 + rng.Intn(12),
			SlotsPerServer: 1 + rng.Intn(8),
			LinkBps:        1e8 + rng.Float64()*5e9,
			BufferBytes:    1e3 + rng.Float64()*1e6,
			RackOversub:    1 + rng.Float64()*9,
			PodOversub:     1 + rng.Float64()*9,
		}
		if rng.Intn(2) == 0 {
			cfg.NICBufferBytes = 1e3 + rng.Float64()*1e5
		}
		tree := mustTree(t, cfg)
		dense := denseTable(cfg)
		if tree.NumPorts() != len(dense) {
			t.Fatalf("%+v: NumPorts = %d, dense table has %d", cfg, tree.NumPorts(), len(dense))
		}
		same := func(what string, got, want Port) {
			t.Helper()
			if got != want || got.QueueCapacity() != want.QueueCapacity() {
				t.Fatalf("%+v: %s = %+v (capacity %v), dense table has %+v (capacity %v)",
					cfg, what, got, got.QueueCapacity(), want, want.QueueCapacity())
			}
		}
		for id, want := range dense {
			same(fmt.Sprintf("Port(%d)", id), tree.Port(id), want)
			if rate, capacity := tree.Line(id); rate != want.RateBps || capacity != want.QueueCapacity() {
				t.Fatalf("%+v: Line(%d) = %v, %v; dense table has %v, %v", cfg, id, rate, capacity, want.RateBps, want.QueueCapacity())
			}
		}
		for s := 0; s < tree.Servers(); s++ {
			same("ServerUpPort", tree.ServerUpPort(s), dense[tree.ServerUpPortID(s)])
			same("RackDownPort", tree.RackDownPort(s), dense[tree.RackDownPortID(s)])
		}
		for r := 0; r < tree.Racks(); r++ {
			same("RackUpPort", tree.RackUpPort(r), dense[tree.RackUpPortID(r)])
			same("PodDownPort", tree.PodDownPort(r), dense[tree.PodDownPortID(r)])
		}
		for p := 0; p < tree.Pods(); p++ {
			same("PodUpPort", tree.PodUpPort(p), dense[tree.PodUpPortID(p)])
			same("CoreDownPort", tree.CoreDownPort(p), dense[tree.CoreDownPortID(p)])
		}
		src, dst := rng.Intn(tree.Servers()), rng.Intn(tree.Servers())
		for i, p := range tree.Path(src, dst) {
			same(fmt.Sprintf("Path(%d, %d)[%d]", src, dst, i), p, dense[p.ID])
		}
	}
}

func TestPortOutOfRangePanics(t *testing.T) {
	tree := mustTree(t, testConfig())
	for _, id := range []int{-1, tree.NumPorts()} {
		for name, call := range map[string]func(){
			"Port": func() { tree.Port(id) },
			"Line": func() { tree.Line(id) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, id)
					}
				}()
				call()
			}()
		}
	}
}
