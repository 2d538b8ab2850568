package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"verlog/internal/fsio"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/tenant"
)

// node is a verlog server the benchmark can start on a directory, stop
// abruptly and start again. procNode is the real thing — a separate
// verlog-server process, which every end-to-end metric is measured
// against; inprocNode serves the same handler from this process, for the
// traced passes (which wrap the handler and the filesystem) and for the
// hermetic tests.
type node interface {
	// start launches the server on the node's directory and returns once
	// /v1/readyz answers 200. A non-empty initFile creates the repository
	// from that object-base file first.
	start(initFile string) error
	// kill stops the server without any shutdown path (SIGKILL for a
	// process) and waits until it is gone.
	kill() error
	url() string
	pid() int
	dir() string
}

const readyTimeout = 60 * time.Second

// awaitReady polls /v1/readyz until it answers 200. exited, when non-nil,
// reports a server that died while we were waiting.
func awaitReady(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(readyTimeout)
	hc := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("server exited before becoming ready")
		default:
		}
		resp, err := hc.Get(url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("server at %s not ready after %s", url, readyTimeout)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// procNode runs the verlog-server binary as a child process with the
// program's default flags (fsync policy, GOMAXPROCS and GOGC untouched);
// its stderr goes to a file next to the repository directory.
type procNode struct {
	bin     string
	repoDir string
	addr    string
	cmd     *exec.Cmd
	exited  chan struct{}
	stderr  *os.File
}

func (n *procNode) url() string { return "http://" + n.addr }
func (n *procNode) dir() string { return n.repoDir }
func (n *procNode) pid() int {
	if n.cmd == nil || n.cmd.Process == nil {
		return 0
	}
	return n.cmd.Process.Pid
}

func (n *procNode) start(initFile string) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	n.addr = addr
	args := []string{"-dir", n.repoDir, "-addr", addr}
	if initFile != "" {
		args = append(args, "-init", initFile)
	}
	logf, err := os.OpenFile(n.repoDir+".stderr", os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	n.stderr = logf
	n.cmd = exec.Command(n.bin, args...)
	n.cmd.Stderr = logf
	n.cmd.Stdout = logf
	if err := n.cmd.Start(); err != nil {
		n.cmd = nil
		logf.Close()
		return fmt.Errorf("starting %s: %w", n.bin, err)
	}
	n.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // a killed server reports its signal; the exit is all we need
		close(done)
	}(n.cmd, n.exited)
	if err := awaitReady(n.url(), n.exited); err != nil {
		_ = n.kill()
		tail, _ := os.ReadFile(n.repoDir + ".stderr")
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return fmt.Errorf("%w; server stderr:\n%s", err, tail)
	}
	return nil
}

func (n *procNode) kill() error {
	if n.cmd == nil {
		return nil
	}
	err := n.cmd.Process.Signal(syscall.SIGKILL)
	if errors.Is(err, os.ErrProcessDone) {
		err = nil
	}
	<-n.exited
	n.stderr.Close()
	n.cmd = nil
	return err
}

// inprocNode serves server.New(repo) from this process on a loopback
// listener. fs and wrap let the traced pass count filesystem operations
// and time the handler from outside; both default to the plain thing.
type inprocNode struct {
	repoDir string
	fs      fsio.FS
	wrap    func(http.Handler) http.Handler

	repo    *repository.Repository
	tenants *tenant.Manager
	srv     *http.Server
	addr    string
	served  chan struct{}
}

func (n *inprocNode) url() string { return "http://" + n.addr }
func (n *inprocNode) dir() string { return n.repoDir }
func (n *inprocNode) pid() int    { return os.Getpid() }

func (n *inprocNode) start(initFile string) error {
	fs := n.fs
	if fs == nil {
		fs = fsio.OS
	}
	if initFile != "" {
		// The same two steps verlog-server -init takes.
		src, err := os.ReadFile(initFile)
		if err != nil {
			return err
		}
		ob, err := parser.ObjectBase(string(src), initFile)
		if err != nil {
			return err
		}
		r, err := repository.InitFS(n.repoDir, ob, fs)
		if err != nil {
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	repo, err := repository.OpenFS(n.repoDir, fs)
	if err != nil {
		return err
	}
	n.repo = repo
	n.tenants = tenant.NewManager(filepath.Join(n.repoDir, "tenants"), tenant.WithFS(fs))
	var h http.Handler = server.New(repo, server.WithTenantManager(n.tenants))
	if n.wrap != nil {
		h = n.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.addr = ln.Addr().String()
	n.srv = &http.Server{Handler: h}
	n.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		_ = srv.Serve(ln) // returns ErrServerClosed from kill
		close(done)
	}(n.srv, n.served)
	return awaitReady(n.url(), n.served)
}

func (n *inprocNode) kill() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.served
	n.tenants.Close()
	if cerr := n.repo.Close(); err == nil {
		err = cerr
	}
	n.srv = nil
	return err
}
