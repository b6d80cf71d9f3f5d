package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// server is one server process the benchmark started: stock metacommd, or
// the benchmark's own traced assembly.
type server struct {
	cmd     *exec.Cmd
	ltap    string
	pbx     string
	mp      string
	setup   time.Duration
	ctl     io.WriteCloser // traced assembly only: control commands
	replies chan string
	exited  chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts a server and waits until it is ready: it has printed its
// listener addresses (metacomm.Start has returned, so journal replay, index
// build and the startup device synchronization are done) and a base search
// of probeDN through LTAP returns exactly that entry. setup is the time from
// launch to that answer.
func launch(bin string, args []string, logPath, probeDN string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// A server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	ctl, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, ctl: ctl, replies: make(chan string, 1), exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			field := func(prefix string) string { return strings.TrimSpace(strings.TrimPrefix(line, prefix)) }
			switch {
			case strings.HasPrefix(line, "ctl "):
				s.replies <- strings.TrimPrefix(line, "ctl ")
			case announced:
			case strings.HasPrefix(line, "LDAP (via LTAP):"):
				s.ltap = field("LDAP (via LTAP):")
			case strings.HasPrefix(line, "Definity PBX:"):
				s.pbx = field("Definity PBX:")
			case strings.HasPrefix(line, "messaging platform:"):
				s.mp = field("messaging platform:")
				announced = true
				ready <- nil
			}
		}
		if !announced {
			ready <- fmt.Errorf("%s exited before it was ready", bin)
		}
	}()
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%w; its log ends: %s", err, logTail(logPath))
		}
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s not ready after 120s; its log ends: %s", bin, logTail(logPath))
	}
	for {
		ok, err := probe(s.ltap, probeDN)
		if ok {
			break
		}
		if time.Since(t0) > 120*time.Second {
			s.stop()
			return nil, fmt.Errorf("no correct search through %s: %v", s.ltap, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// logTail returns the last lines of a server log, for an error message:
// the log is in the run's scratch dir, which is removed when the run ends.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// probe reports whether a base search of name through addr returns exactly
// that entry.
func probe(addr, name string) (bool, error) {
	c, err := ldapclient.Dial(addr)
	if err != nil {
		return false, err
	}
	defer c.Close()
	es, err := c.Search(&ldap.SearchRequest{BaseDN: name, Scope: ldap.ScopeBaseObject})
	if err != nil {
		return false, err
	}
	return len(es) == 1 && strings.EqualFold(es[0].DN, name), nil
}

// command sends a control command to a traced assembly and waits for its
// reply.
func (s *server) command(cmd string) (string, error) {
	if _, err := fmt.Fprintln(s.ctl, cmd); err != nil {
		return "", err
	}
	select {
	case r := <-s.replies:
		return r, nil
	case <-s.exited:
		return "", fmt.Errorf("server exited during %q", cmd)
	case <-time.After(60 * time.Second):
		return "", fmt.Errorf("no reply to %q", cmd)
	}
}

// stop ends the server: closing its stdin tells a traced assembly to write
// its trace and exit; SIGTERM stops metacommd. It waits for the exit.
func (s *server) stop() {
	s.ctl.Close()
	if s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return
	case <-time.After(30 * time.Second):
	}
	s.cmd.Process.Kill()
	<-s.exited
}

// cpuTime returns the process's user+sys CPU time so far.
func (s *server) cpuTime() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// peakRSS returns VmHWM, the process's peak resident set, in MB.
func (s *server) peakRSS() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
