//! Runs a sans-IO [`App`] over real TCP sockets.
//!
//! This is the second transport behind the [`App`] trait: the same protocol
//! state machines that run under the simulator can be attached to actual
//! `std::net` sockets, demonstrating that the implementations are wire-real
//! and not simulator artifacts (see `crates/core/tests/live_loopback.rs`).
//!
//! The runtime is intentionally simple — one OS thread multiplexes each
//! node's callbacks through an mpsc channel, one reader thread per
//! connection, one thread per armed timer. That is plenty for examples and
//! integration tests; month-scale studies stay on the simulator.

use crate::addr::HostAddr;
use crate::app::NodeId;
use crate::app::{Action, App, ConnId, Ctx, Direction, TimerToken};
use crate::pool::BufferPool;
use crate::profile::SubsystemProfile;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, SocketAddrV4, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum LiveEvent {
    Start,
    Connected {
        conn: ConnId,
        dir: Direction,
        peer: HostAddr,
        stream: TcpStream,
    },
    ConnectFailed {
        conn: ConnId,
    },
    Data {
        conn: ConnId,
        data: Vec<u8>,
    },
    Closed {
        conn: ConnId,
    },
    Timer {
        token: TimerToken,
    },
    Stop,
}

fn to_host_addr(sa: SocketAddr) -> HostAddr {
    match sa {
        SocketAddr::V4(v4) => HostAddr::new(*v4.ip(), v4.port()),
        SocketAddr::V6(_) => HostAddr::new(Ipv4Addr::LOCALHOST, sa.port()),
    }
}

fn spawn_reader(conn: ConnId, stream: TcpStream, tx: Sender<LiveEvent>) {
    std::thread::spawn(move || {
        let mut stream = stream;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = tx.send(LiveEvent::Closed { conn });
                    return;
                }
                Ok(n) => {
                    if tx
                        .send(LiveEvent::Data {
                            conn,
                            data: buf[..n].to_vec(),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    });
}

/// A node running over real TCP on a background thread.
pub struct LiveNode {
    addr: HostAddr,
    tx: Sender<LiveEvent>,
    stopped: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl LiveNode {
    /// Binds `127.0.0.1:port` (0 picks a free port), starts the listener and
    /// app thread, and delivers `on_start`.
    pub fn spawn(app: Box<dyn App + Send>, port: u16) -> std::io::Result<LiveNode> {
        let listener = TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))?;
        let addr = to_host_addr(listener.local_addr()?);
        let (tx, rx) = channel::<LiveEvent>();
        let stopped = Arc::new(AtomicBool::new(false));
        let next_conn = Arc::new(AtomicU64::new(1));

        // Acceptor thread: inbound connections become Connected events.
        {
            let tx = tx.clone();
            let stopped = stopped.clone();
            let next_conn = next_conn.clone();
            listener.set_nonblocking(true)?;
            std::thread::spawn(move || {
                while !stopped.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            let conn = ConnId(next_conn.fetch_add(1, Ordering::Relaxed));
                            let _ = stream.set_nonblocking(false);
                            let _ = tx.send(LiveEvent::Connected {
                                conn,
                                dir: Direction::Inbound,
                                peer: to_host_addr(peer),
                                stream,
                            });
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            });
        }

        let thread = {
            let tx_self = tx.clone();
            let stopped = stopped.clone();
            std::thread::spawn(move || {
                run_app_loop(app, addr, rx, tx_self, next_conn, stopped);
            })
        };
        let _ = tx.send(LiveEvent::Start);
        Ok(LiveNode {
            addr,
            tx,
            stopped,
            thread: Some(thread),
        })
    }

    /// The address peers can dial.
    pub fn addr(&self) -> HostAddr {
        self.addr
    }

    /// Stops the node and joins its app thread.
    pub fn stop(mut self) {
        self.stopped.store(true, Ordering::Relaxed);
        let _ = self.tx.send(LiveEvent::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LiveNode {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::Relaxed);
        let _ = self.tx.send(LiveEvent::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn run_app_loop(
    mut app: Box<dyn App + Send>,
    addr: HostAddr,
    rx: Receiver<LiveEvent>,
    tx: Sender<LiveEvent>,
    next_conn: Arc<AtomicU64>,
    stopped: Arc<AtomicBool>,
) {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x11_7e_c0_de);
    let mut pool = BufferPool::default();
    let mut profile = SubsystemProfile::new();
    let mut registry = crate::telemetry::MetricsRegistry::new();
    let mut telemetry = crate::telemetry::TelemetryBuffer::default();
    let mut streams: HashMap<u64, TcpStream> = HashMap::new();
    // `Ctx.next_conn` needs a plain &mut u64; reconcile with the shared
    // atomic after each callback.
    while let Ok(ev) = rx.recv() {
        if stopped.load(Ordering::Relaxed) {
            break;
        }
        let mut actions = Vec::new();
        let mut conn_counter = next_conn.load(Ordering::Relaxed);
        {
            let mut ctx = Ctx {
                now: SimTime::from_micros(start.elapsed().as_micros() as u64),
                node: NodeId(0),
                local_addr: addr,
                external_addr: addr,
                rng: &mut rng,
                actions: &mut actions,
                next_conn: &mut conn_counter,
                pool: &mut pool,
                profile: &mut profile,
                registry: &mut registry,
                telemetry: &mut telemetry,
            };
            match ev {
                LiveEvent::Start => app.on_start(&mut ctx),
                LiveEvent::Connected {
                    conn,
                    dir,
                    peer,
                    stream,
                } => {
                    if let Ok(reader) = stream.try_clone() {
                        spawn_reader(conn, reader, tx.clone());
                    }
                    streams.insert(conn.0, stream);
                    app.on_connected(&mut ctx, conn, dir, peer);
                }
                LiveEvent::ConnectFailed { conn } => app.on_connect_failed(&mut ctx, conn),
                LiveEvent::Data { conn, data } => app.on_data(&mut ctx, conn, &data),
                LiveEvent::Closed { conn } => {
                    streams.remove(&conn.0);
                    app.on_closed(&mut ctx, conn);
                }
                LiveEvent::Timer { token } => app.on_timer(&mut ctx, token),
                LiveEvent::Stop => break,
            }
        }
        next_conn.store(conn_counter, Ordering::Relaxed);
        // Apply buffered actions.
        for act in actions {
            match act {
                Action::Connect { conn, target } => {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let sa = SocketAddrV4::new(target.ip, target.port);
                        match TcpStream::connect_timeout(&sa.into(), Duration::from_secs(5)) {
                            Ok(stream) => {
                                let peer =
                                    to_host_addr(stream.peer_addr().unwrap_or_else(|_| sa.into()));
                                let _ = tx.send(LiveEvent::Connected {
                                    conn,
                                    dir: Direction::Outbound,
                                    peer,
                                    stream,
                                });
                            }
                            Err(_) => {
                                let _ = tx.send(LiveEvent::ConnectFailed { conn });
                            }
                        }
                    });
                }
                Action::Send { conn, data } => {
                    let data = data.into_vec();
                    let mut failed = false;
                    if let Some(s) = streams.get_mut(&conn.0) {
                        failed = s.write_all(&data).is_err();
                    }
                    pool.release(data);
                    if failed {
                        streams.remove(&conn.0);
                        let _ = tx.send(LiveEvent::Closed { conn });
                    }
                }
                Action::Close { conn } => {
                    if let Some(s) = streams.remove(&conn.0) {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                Action::Timer { delay, token } => {
                    let tx = tx.clone();
                    let d = Duration::from_micros(delay.as_micros());
                    std::thread::spawn(move || {
                        std::thread::sleep(d);
                        let _ = tx.send(LiveEvent::Timer { token });
                    });
                }
                // Sockets deliver into buffers of their own: nothing is
                // lent, so nothing comes back.
                Action::GiveBack { .. } => {}
                Action::Shutdown => {
                    stopped.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
    // Readers notice closed sockets when streams drop here.
    for (_, s) in streams {
        let _ = s.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct EchoServer;
    impl App for EchoServer {
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            ctx.send(conn, data);
        }
    }

    struct OnceClient {
        target: HostAddr,
        got: Arc<Mutex<Vec<u8>>>,
    }
    impl App for OnceClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.target);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _d: Direction, _p: HostAddr) {
            ctx.send(conn, b"over real ");
            ctx.send_deferred(conn, 3, |out| out.extend_from_slice(b"tcp"));
        }
        fn on_data(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, data: &[u8]) {
            self.got.lock().unwrap().extend_from_slice(data);
        }
    }

    #[test]
    fn echo_over_real_sockets() {
        let server = LiveNode::spawn(Box::new(EchoServer), 0).unwrap();
        let got = Arc::new(Mutex::new(Vec::new()));
        let client = LiveNode::spawn(
            Box::new(OnceClient {
                target: server.addr(),
                got: got.clone(),
            }),
            0,
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if got.lock().unwrap().as_slice() == b"over real tcp" {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(got.lock().unwrap().as_slice(), b"over real tcp");
        client.stop();
        server.stop();
    }
}
