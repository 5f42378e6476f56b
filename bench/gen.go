package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"exbox/internal/excr"
	"exbox/internal/traffic"
)

// The load generator. All load comes from this process: one sending
// goroutine on one UDP socket. Many client addresses come from that one
// socket by setting the source address per datagram with an IP_PKTINFO
// control message (every 127.x.y.z is local on Linux), so the number of
// flows is not bounded by file descriptors. Datagrams leave in sendmmsg
// batches so that the generator, not the daemon, has CPU to spare.

// A packet is one generated datagram: which client sends it, how long it
// is, and the direction byte exboxd reads from the payload.
type packet struct {
	client uint32 // index into the workload's client address space
	size   uint16
	up     bool
}

// A schedule is the seeded input of a daemon workload: unit(i) appends
// the i-th send unit (one datagram on fwd_steady, one 12-datagram train
// on churn) to dst. Units are sent in order, one unit per pacing period,
// and the in-process replay walks the same units.
type schedule struct {
	unitLen int // datagrams per unit
	unit    func(i int, dst []packet) []packet
	// addr maps a client index to its loopback source address.
	addr func(client uint32) [4]byte
}

// clientAddr spreads client indices over 127.1.0.0 – 127.254.255.255,
// starting at a seeded offset so different seeds use different clients.
func clientAddr(base, client uint32) [4]byte {
	k := (base + client) % (254 << 16)
	return [4]byte{127, byte(1 + k>>16), byte(k >> 8), byte(k)}
}

// steadySchedule is fwd_steady: nClients long-lived clients taking turns,
// 64-byte downlink datagrams. addrs are chosen by the caller (seeded and
// balanced over the daemon's workers).
func steadySchedule(addrs [][4]byte) schedule {
	n := uint32(len(addrs))
	return schedule{
		unitLen: 1,
		unit: func(i int, dst []packet) []packet {
			return append(dst, packet{client: uint32(i) % n, size: 64})
		},
		addr: func(c uint32) [4]byte { return addrs[c] },
	}
}

const (
	churnTrain = 12 // datagrams per new flow; the daemon classifies at the 10th
	churnHeads = 64 // distinct trace heads per class
)

// churnSchedule is churn: unit i is a client never seen before, sending
// the first churnTrain packets of a seeded synthetic trace of its class
// (web, streaming, conferencing in equal thirds) back to back.
func churnSchedule(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	classes := []excr.AppClass{excr.Web, excr.Streaming, excr.Conferencing}
	heads := make([][][]packet, len(classes))
	for c, class := range classes {
		for len(heads[c]) < churnHeads {
			tr := traffic.Synthesize(class, 30, rng)
			var h []packet
			for _, p := range tr.Packets {
				if p.Bytes <= 0 {
					continue
				}
				size := p.Bytes
				if size > 1400 {
					size = 1400
				}
				h = append(h, packet{size: uint16(size), up: p.Up})
				if len(h) == churnTrain {
					break
				}
			}
			if len(h) == churnTrain {
				heads[c] = append(heads[c], h)
			}
		}
	}
	base := uint32(rng.Int31())
	pick := uint32(rng.Int31())
	return schedule{
		unitLen: churnTrain,
		unit: func(i int, dst []packet) []packet {
			c := i % len(classes)
			// A cheap seeded hash picks the head, so unit(i) is a pure
			// function and the replay regenerates the same packets.
			h := heads[c][(uint32(i)*2654435761+pick)>>8%churnHeads]
			for _, p := range h {
				p.client = uint32(i)
				dst = append(dst, p)
			}
			return dst
		},
		addr: func(c uint32) [4]byte { return clientAddr(base, c) },
	}
}

// mmsghdr is struct mmsghdr; Go's field alignment gives the C layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

const pktinfoLen = 12 // sizeof(struct in_pktinfo)

// putPktinfo writes one IP_PKTINFO control message selecting src as the
// datagram's source address into b, which has syscall.CmsgSpace(pktinfoLen)
// bytes.
func putPktinfo(b []byte, src [4]byte) {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level = syscall.IPPROTO_IP
	h.Type = syscall.IP_PKTINFO
	h.SetLen(syscall.CmsgLen(pktinfoLen))
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&b[syscall.CmsgLen(0)]))
	pi.Ifindex = 0
	pi.Spec_dst = src
	pi.Addr = [4]byte{}
}

// sender owns the generator's socket and its preallocated sendmmsg
// buffers.
type sender struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	port int // the source port every generated client shares
	dst  syscall.RawSockaddrInet4
	hdrs []mmsghdr
	iovs []syscall.Iovec
	ctrl []byte
	// Two payload images, one per direction byte; an iovec points at the
	// right one with the datagram's length.
	up, down []byte
	pin      pinning
}

const maxBatch = 64

func newSender(dst *net.UDPAddr) (*sender, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	s := &sender{
		conn: conn, rc: rc,
		port: conn.LocalAddr().(*net.UDPAddr).Port,
		hdrs: make([]mmsghdr, maxBatch),
		iovs: make([]syscall.Iovec, maxBatch),
		ctrl: make([]byte, maxBatch*syscall.CmsgSpace(pktinfoLen)),
		up:   make([]byte, 1500),
		down: make([]byte, 1500),
	}
	s.up[0], s.down[0] = 'U', 'D'
	s.setDst(dst)
	space := syscall.CmsgSpace(pktinfoLen)
	for i := range s.hdrs {
		h := &s.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&s.dst))
		h.Namelen = syscall.SizeofSockaddrInet4
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		h.Control = &s.ctrl[i*space]
		h.SetControllen(space)
	}
	return s, nil
}

func (s *sender) setDst(dst *net.UDPAddr) {
	s.dst = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	copy(s.dst.Addr[:], dst.IP.To4())
	// sin_port is in network byte order.
	p := (*[2]byte)(unsafe.Pointer(&s.dst.Port))
	p[0], p[1] = byte(dst.Port>>8), byte(dst.Port)
}

func (s *sender) close() { s.conn.Close() }

// send transmits pkts (at most maxBatch) in as few sendmmsg calls as the
// kernel allows.
func (s *sender) send(sch *schedule, pkts []packet) error {
	space := syscall.CmsgSpace(pktinfoLen)
	for i, p := range pkts {
		buf := s.down
		if p.up {
			buf = s.up
		}
		s.iovs[i].Base = &buf[0]
		s.iovs[i].SetLen(int(p.size))
		putPktinfo(s.ctrl[i*space:], sch.addr(p.client))
	}
	for off := 0; off < len(pkts); {
		var n uintptr
		var errno syscall.Errno
		err := s.rc.Write(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.hdrs[off])), uintptr(len(pkts)-off), 0, 0, 0)
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return fmt.Errorf("sendmmsg: %w", err)
		}
		if errno != 0 {
			return fmt.Errorf("sendmmsg: %w", errno)
		}
		off += int(n)
	}
	return nil
}

// genStats is the generator's self-report for one phase.
type genStats struct {
	sent     int64 // datagrams
	units    int   // schedule units consumed
	wall     time.Duration
	cpu      time.Duration // generator thread CPU (user+sys) over the phase
	lateP99  float64       // µs a unit left after it was due; 0 when unpaced
	lateSamp int
}

func (g genStats) pps() float64 { return float64(g.sent) / g.wall.Seconds() }

// run sends schedule units first, first+1, … for d. With rate > 0 it is an
// open loop: unit k is due at start + k/rate·unitLen and is sent when due,
// never earlier, however late earlier units ran; lateness is measured from
// the due time. The wait is a spin on the clock, because a sleeping thread
// wakes tens of microseconds to a millisecond late and the daemon would
// then see bursts instead of the schedule; the sending thread is pinned to
// a CPU the daemon may not use (see pinning), so the spin costs the daemon
// nothing. With rate == 0 units leave back to back in full sendmmsg
// batches (the flood).
func (s *sender) run(sch *schedule, first int, rate float64, d time.Duration) (genStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer s.pin.generator()()
	var st genStats
	var late []int32 // lateness per unit, in units of 100 ns
	var period time.Duration
	perBatch := maxBatch / sch.unitLen
	if rate > 0 {
		period = time.Duration(float64(sch.unitLen) / rate * float64(time.Second))
		perBatch = 1
		late = make([]int32, 0, int(d/period)+1)
	}
	buf := make([]packet, 0, maxBatch)
	cpu0 := threadCPU()
	start := time.Now()
	for {
		now := time.Since(start)
		if now >= d {
			break
		}
		if rate > 0 {
			due := time.Duration(st.units) * period
			for now < due {
				now = time.Since(start)
			}
			if now >= d {
				break
			}
			late = append(late, int32((now-due)/100))
		}
		buf = buf[:0]
		for k := 0; k < perBatch; k++ {
			buf = sch.unit(first+st.units, buf)
			st.units++
		}
		if err := s.send(sch, buf); err != nil {
			return st, err
		}
		st.sent += int64(len(buf))
	}
	st.wall = time.Since(start)
	st.cpu = threadCPU() - cpu0
	if len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		st.lateP99 = float64(late[len(late)*99/100]) / 10
		st.lateSamp = len(late)
	}
	return st, nil
}

// threadCPU returns the calling OS thread's user+system CPU time; callers
// hold runtime.LockOSThread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const rusageThread = 1 // RUSAGE_THREAD
