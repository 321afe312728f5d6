//! The six workloads: what is painted, who watches over which links, and
//! what "correct" means for each viewer.
//!
//! Every session shares exactly **one** window. With two or more shared
//! windows damaged in one flush the AH's wire bytes differ from process to
//! process at the same seed (`drain_pending` walks a `std::HashMap`), which
//! would make the deterministic metrics meaningless; see the README.

use adshare::prelude::*;
use adshare::screen::workload::photo_frame;
use adshare::screen::WindowId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Fnv;

/// One capture tick on the virtual clock, µs (≈ 60 fps).
pub const TICK_US: u64 = 16_000;

/// Sessions hosted by `host_64`.
pub const HOST_SESSIONS: usize = 64;

/// A named workload and why it exists.
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: which layers it loads and which it leaves idle.
    pub why: &'static str,
    /// Capture ticks per round.
    pub ticks: u32,
    /// Frames one tick stands for (sessions stepped per tick).
    pub frames_per_tick: u32,
    plan: fn(u64) -> Plan,
}

/// All workloads, in reporting order.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "typing_udp",
        why: "keystrokes through the cheap RLE codec to 8 UDP viewers: per-packet and per-viewer session, RTP and RTCP work dominates, codec under a fifth",
        ticks: 12_000,
        frames_per_tick: 1,
        plan: typing_udp,
    },
    Spec {
        name: "photo_png_udp",
        why: "incompressible slides through PNG filters, DEFLATE and ~200-packet trains: codec and remoting dominate, encode cache always misses",
        ticks: 200,
        frames_per_tick: 1,
        plan: photo_png_udp,
    },
    Spec {
        name: "video_dct_udp",
        why: "DCT encode and decode every tick under 1% loss: the other half of codec plus NACK and retransmit history",
        ticks: 200,
        frames_per_tick: 1,
        plan: video_dct_udp,
    },
    Spec {
        name: "office_tcp",
        why: "encode-cache hits (ping-pong) beside misses (typing) over RFC 4571 TCP with the freshest-frame backlog policy engaged",
        ticks: 200,
        frames_per_tick: 1,
        plan: office_tcp,
    },
    Spec {
        name: "relay_tree_tiers",
        why: "RLE text bursts to 16 legs behind two relay hops, two pacer-capped onto a lossy tier: relay ingest, fan-out and tier re-encode do the work, the AH little",
        ticks: 400,
        frames_per_tick: 1,
        plan: relay_tree_tiers,
    },
    Spec {
        name: "host_64",
        why: "64 small sessions in one MultiHost: shared sharded cache, worker pool and readiness heap, so host scheduling is what can move",
        ticks: 200,
        frames_per_tick: HOST_SESSIONS as u32,
        plan: host_64,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Plan the world for `seed`: desktop(s), painters, links and viewers.
    pub fn plan(&self, seed: u64) -> Plan {
        (self.plan)(seed)
    }
}

/// Derive an independent sub-seed (splitmix64 finaliser).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What paints one window. Input generation (`prepare`) is kept apart from
/// drawing (`apply`) so that only the product's share — `Desktop::draw`
/// and damage tracking — falls inside the timed part of a tick.
pub enum Painter {
    /// One of the product's seeded generators (`adshare_screen::workload`).
    Gen {
        /// The generator.
        wl: Box<dyn Workload + Send>,
        /// Its random source, derived from the workload seed.
        rng: StdRng,
        /// Run the generator on every `every`-th tick only.
        every: u32,
        /// Ticks seen so far.
        counter: u32,
    },
    /// A fresh photographic frame every `every` ticks.
    Photo {
        /// Target window.
        window: WindowId,
        /// Window-local region the frame covers.
        region: Rect,
        /// Ticks between frames.
        every: u32,
        /// Ticks seen so far.
        counter: u32,
        /// Seed of the next frame (stepped like `Slideshow` does).
        seed: u32,
        /// The frame `prepare` made for this tick.
        pending: Option<Image>,
    },
    /// Two fixed photographic frames alternating every tick.
    PingPong {
        /// Target window.
        window: WindowId,
        /// Window-local position.
        at: (u32, u32),
        /// The two frames.
        frames: Box<[Image; 2]>,
        /// Which frame is next.
        phase: bool,
    },
}

impl Painter {
    fn gen(wl: impl Workload + Send + 'static, seed: u64) -> Painter {
        Painter::gen_every(wl, 1, seed)
    }

    fn gen_every(wl: impl Workload + Send + 'static, every: u32, seed: u64) -> Painter {
        Painter::Gen {
            wl: Box::new(wl),
            rng: StdRng::seed_from_u64(seed),
            every,
            counter: 0,
        }
    }

    fn photo(window: WindowId, region: Rect, every: u32, seed: u64) -> Painter {
        Painter::Photo {
            window,
            region,
            every,
            counter: 0,
            seed: seed as u32,
            pending: None,
        }
    }

    fn ping_pong(window: WindowId, region: Rect, seed: u64, digest: &mut Fnv) -> Painter {
        let frames = [1, 2].map(|k| {
            let f = photo_frame(region.width, region.height, sub_seed(seed, k) as u32);
            digest.fold_bytes(f.data());
            f
        });
        Painter::PingPong {
            window,
            at: (region.left, region.top),
            frames: Box::new(frames),
            phase: false,
        }
    }

    /// Generate this tick's input (untimed) and fold it into `digest`.
    pub fn prepare(&mut self, digest: &mut Fnv) {
        if let Painter::Photo {
            region,
            every,
            counter,
            seed,
            pending,
            ..
        } = self
        {
            *counter += 1;
            if *counter % *every == 0 {
                *seed = seed.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
                let frame = photo_frame(region.width, region.height, *seed);
                digest.fold_bytes(frame.data());
                *pending = Some(frame);
            }
        }
    }

    /// Draw this tick's input onto the desktop (timed: `screen` layer).
    pub fn apply(&mut self, desktop: &mut Desktop) {
        match self {
            Painter::Gen {
                wl,
                rng,
                every,
                counter,
            } => {
                *counter += 1;
                if *counter % *every == 0 {
                    wl.tick(desktop, rng);
                }
            }
            Painter::Photo {
                window,
                region,
                pending,
                ..
            } => {
                if let Some(frame) = pending.take() {
                    desktop.draw(*window, region.left, region.top, &frame);
                }
            }
            Painter::PingPong {
                window,
                at,
                frames,
                phase,
            } => {
                desktop.draw(*window, at.0, at.1, &frames[*phase as usize]);
                *phase = !*phase;
            }
        }
    }
}

/// What a viewer must show at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Pixel-for-pixel equal to the AH.
    Lossless,
    /// A lossy rendition: mean absolute error per channel below
    /// [`LOSSY_BOUND`] (the bound `tests/extensions.rs` and E20 accept).
    Lossy,
}

/// Largest mean absolute per-channel error a lossy viewer may show.
pub const LOSSY_BOUND: f64 = 8.0;

/// A viewer attached straight to the AH.
#[derive(Debug, Clone, Copy)]
pub enum DirectViewer {
    /// Unicast UDP with RTCP feedback.
    Udp {
        /// AH → viewer link.
        down: LinkConfig,
        /// Viewer → AH feedback link.
        up: LinkConfig,
    },
    /// RFC 4571-framed TCP.
    Tcp {
        /// The stream.
        link: TcpConfig,
        /// Viewer → AH feedback link.
        up: LinkConfig,
    },
}

/// A viewer on a relay leg.
#[derive(Debug, Clone, Copy)]
pub struct RelayViewer {
    /// Index of the relay it hangs off.
    pub relay: usize,
    /// The leg's link, both directions.
    pub link: LinkConfig,
    /// Pacer cap of the leg, bits/s.
    pub cap_bps: u64,
}

/// Who watches, over what.
pub enum Topology {
    /// One AH, viewers on direct links.
    Direct {
        /// AH configuration.
        cfg: AhConfig,
        /// The viewers, in index order.
        viewers: Vec<DirectViewer>,
    },
    /// One AH, a relay tree, viewers on relay legs.
    Relay {
        /// AH configuration.
        cfg: AhConfig,
        /// The link from each relay to its parent, both directions.
        hop: LinkConfig,
        /// Where each relay subscribes, in index order.
        relays: Vec<Upstream>,
        /// The viewers, in index order.
        viewers: Vec<RelayViewer>,
    },
    /// One session per desktop inside a `MultiHost`, one UDP viewer each.
    Host {
        /// Both directions of every viewer's link.
        link: LinkConfig,
    },
}

/// Everything needed to build a workload's world, by the product's own
/// orchestrators or by the benchmark's traced stepper alike.
pub struct Plan {
    /// Workload seed; sub-seeds derive from it by fixed indices.
    pub seed: u64,
    /// One desktop per session with its single shared window.
    pub desktops: Vec<(Desktop, WindowId)>,
    /// One painter list entry per painter (per session for `Host`).
    pub painters: Vec<Painter>,
    /// Sessions, links and viewers.
    pub topology: Topology,
    /// Expected end state per viewer, in viewer-index order.
    pub checks: Vec<Check>,
    /// Digest of inputs generated while planning (fixed frames).
    pub input: Fnv,
}

/// Seed of the AH of session `i` under workload seed `seed`.
pub fn session_seed(seed: u64, i: usize) -> u64 {
    sub_seed(seed, 100 + i as u64)
}

/// Seed of relay `i`.
pub fn relay_seed(seed: u64, i: usize) -> u64 {
    sub_seed(seed, 50 + i as u64)
}

/// Seed of viewer `i`.
pub fn viewer_seed(seed: u64, i: usize) -> u64 {
    sub_seed(seed, 1_000 + i as u64)
}

/// The relay configuration every relay of the benchmark runs: the default
/// with layered quality on, so the pacer-capped legs ride a lossy tier.
pub fn relay_config() -> RelayConfig {
    RelayConfig {
        layers: Some(LayersConfig::default()),
        ..RelayConfig::default()
    }
}

fn white_window(desktop: &mut Desktop, w: u32, h: u32) -> WindowId {
    desktop.create_window(1, Rect::new(48, 48, w, h), [250, 250, 250, 255])
}

fn single(
    seed: u64,
    window: (u32, u32),
    painters: impl FnOnce(WindowId, &mut Fnv) -> Vec<Painter>,
    topology: Topology,
    checks: Vec<Check>,
) -> Plan {
    let mut desktop = Desktop::new(1024, 768);
    let w = white_window(&mut desktop, window.0, window.1);
    let mut input = Fnv::new();
    let painters = painters(w, &mut input);
    Plan {
        seed,
        desktops: vec![(desktop, w)],
        painters,
        topology,
        checks,
        input,
    }
}

fn udp(down: LinkConfig, up: LinkConfig) -> DirectViewer {
    DirectViewer::Udp { down, up }
}

fn typing_udp(seed: u64) -> Plan {
    let link = LinkConfig::default();
    single(
        seed,
        (640, 480),
        |w, _| vec![Painter::gen(Typing::new(w, 3), sub_seed(seed, 2))],
        Topology::Direct {
            cfg: AhConfig {
                codec: CodecKind::Rle,
                ..AhConfig::default()
            },
            viewers: vec![udp(link, link); 8],
        },
        vec![Check::Lossless; 8],
    )
}

fn photo_png_udp(seed: u64) -> Plan {
    let link = LinkConfig::default();
    single(
        seed,
        (512, 384),
        |w, _| {
            let full = Rect::new(0, 0, 512, 384);
            vec![Painter::photo(w, full, 4, sub_seed(seed, 2))]
        },
        Topology::Direct {
            cfg: AhConfig::default(),
            viewers: vec![udp(link, link)],
        },
        vec![Check::Lossless],
    )
}

fn video_dct_udp(seed: u64) -> Plan {
    let up = LinkConfig {
        delay_us: 10_000,
        ..LinkConfig::default()
    };
    let down = LinkConfig { loss: 0.01, ..up };
    single(
        seed,
        (400, 300),
        |w, _| {
            let region = Rect::new(40, 30, 320, 240);
            vec![Painter::photo(w, region, 1, sub_seed(seed, 2))]
        },
        Topology::Direct {
            cfg: AhConfig {
                adaptive_codec: true,
                ..AhConfig::default()
            },
            viewers: vec![udp(down, up); 2],
        },
        vec![Check::Lossy; 2],
    )
}

fn office_tcp(seed: u64) -> Plan {
    let up = LinkConfig::default();
    single(
        seed,
        (800, 600),
        |w, input| {
            vec![
                Painter::gen(Typing::new(w, 3), sub_seed(seed, 2)),
                // Bottom-right, clear of the rows typing reaches in a round.
                Painter::ping_pong(w, Rect::new(528, 392, 256, 192), sub_seed(seed, 3), input),
            ]
        },
        Topology::Direct {
            cfg: AhConfig::default(),
            viewers: vec![
                // 10 Mb/s with a 64 KiB send buffer: the §7 policy engages.
                DirectViewer::Tcp {
                    link: TcpConfig::default(),
                    up,
                },
                DirectViewer::Tcp {
                    link: TcpConfig {
                        rate_bps: 1_000_000_000,
                        send_buf: 8 << 20,
                        ..TcpConfig::default()
                    },
                    up,
                },
            ],
        },
        vec![Check::Lossless; 2],
    )
}

fn relay_tree_tiers(seed: u64) -> Plan {
    // No random loss anywhere on the relay path, on purpose: see "Findings"
    // in the README. The four pacer-capped legs are what makes the tier
    // controllers and the re-encode cache work.
    let hop = LinkConfig {
        delay_us: 10_000,
        ..LinkConfig::default()
    };
    let leg = |relay, cap_bps| RelayViewer {
        relay,
        link: hop,
        cap_bps,
    };
    let mut viewers = vec![leg(0, 6_000_000); 4];
    viewers.extend(vec![leg(1, 6_000_000); 10]);
    viewers.extend(vec![leg(1, 1_200_000); 2]);
    let mut checks = vec![Check::Lossless; 14];
    checks.extend([Check::Lossy; 2]);
    single(
        seed,
        (480, 360),
        // Terminal-style output: six scrolled lines every tenth tick. The
        // product's `Terminal` draws its bursts from the random source, so
        // the amount of work per round would change with the seed; a fixed
        // cadence keeps only the content seed-dependent.
        |w, _| {
            vec![Painter::gen_every(
                Scrolling::new(w, 6),
                10,
                sub_seed(seed, 2),
            )]
        },
        Topology::Relay {
            cfg: AhConfig {
                codec: CodecKind::Rle,
                ..AhConfig::default()
            },
            hop,
            relays: vec![Upstream::Ah, Upstream::Relay(0)],
            viewers,
        },
        checks,
    )
}

fn host_64(seed: u64) -> Plan {
    let mut desktops = Vec::new();
    let mut painters = Vec::new();
    for i in 0..HOST_SESSIONS as u64 {
        let mut desktop = Desktop::new(640, 480);
        let w = white_window(&mut desktop, 400, 300);
        desktops.push((desktop, w));
        // Eight distinct content streams, so tenants share encoded tiles.
        let content = sub_seed(seed, 300 + i % 8);
        painters.push(if i % 2 == 0 {
            Painter::gen(Typing::new(w, 3), content)
        } else {
            Painter::gen(Scrolling::new(w, 1), content)
        });
    }
    Plan {
        seed,
        desktops,
        painters,
        topology: Topology::Host {
            link: LinkConfig {
                delay_us: 2_000,
                ..LinkConfig::default()
            },
        },
        checks: vec![Check::Lossless; HOST_SESSIONS],
        input: Fnv::new(),
    }
}
