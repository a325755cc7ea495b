package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// serverNice is the server's scheduling niceness relative to the generator.
const serverNice = 5

// server is a mutps-server child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	coldDir string
	exited  chan struct{}
	log     *os.File
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns the server for w with GOMAXPROCS=procs and returns
// once it accepts connections; readiness is probed by retrying the dial.
func startServer(bin string, w *Workload, tmp string, procs int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, exited: make(chan struct{})}
	if w.Cold {
		if s.coldDir, err = os.MkdirTemp(tmp, "cold-"); err != nil {
			return nil, err
		}
	}
	if s.log, err = os.CreateTemp(tmp, "server-*.log"); err != nil {
		return nil, err
	}
	// The server runs at nice 5: on a host with no spare core its spinning
	// workers would otherwise hold the CPU the generator's tick needs, and
	// the generator, not the server, would set the latency.
	s.cmd = exec.Command("nice", append([]string{"-n", strconv.Itoa(serverNice), bin}, w.args(addr, s.coldDir)...)...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// Should the benchmark die, the kernel kills the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		s.cleanup()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return s, nil
		}
		select {
		case <-s.exited:
			s.cleanup()
			return nil, fmt.Errorf("mutps-server exited before accepting connections (log: %s)", s.tail())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("mutps-server did not accept connections within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the server (a clean shutdown) and waits for it to exit,
// killing it after 10s; kill skips the clean shutdown.
func (s *server) stop() {
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	s.cleanup()
}

func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.cleanup()
}

func (s *server) cleanup() {
	if s.coldDir != "" {
		os.RemoveAll(s.coldDir)
	}
	s.log.Close()
	os.Remove(s.log.Name())
}

// tail returns the end of the server's log, for error messages.
func (s *server) tail() string {
	b, _ := os.ReadFile(s.log.Name())
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return string(b)
}

// runDir returns a fresh directory for this run's temporary files
// inside root.
func runDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
