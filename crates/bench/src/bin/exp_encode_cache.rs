//! E16 — the parallel tile-encode pipeline and its cross-frame
//! content-addressed cache (`adshare-encode`), measured against the legacy
//! serial per-step configuration on the three regimes it was built for:
//!
//! * **scroll** — big damage every tick (scroll ablation re-encodes the
//!   whole scrolled area): when the per-tick scroll delta is tile-aligned,
//!   every shifted tile rehashes to content the cache already holds, so
//!   only the freshly exposed row costs an encode; the worker pool also
//!   gets its largest batches here (a wall-clock win where cores exist).
//! * **ping-pong** — two alternating frames (blinking caret regime): frame
//!   N+2 is pixel-identical to frame N, so the *cross-frame cache* is the
//!   win; the per-step cache re-encodes every tick forever.
//! * **fan-out** — participants joining a mostly-static session at
//!   different times, each forcing a full refresh: the cache built for the
//!   first participant serves the rest, across steps and transports.
//!
//! Emits an `adshare-obs/v1` snapshot to `target/obs/exp_encode_cache.json`
//! (validated by `obs_schema_check`) and a machine-readable comparison to
//! `BENCH_encode.json`.

use adshare_bench::{emit_snapshot, print_table, round_to, timed, write_bench_json, Content};
use adshare_encode::{EncodeConfig, TileConfig};
use adshare_netsim::udp::LinkConfig;
use adshare_obs::json::{self, Obj};
use adshare_screen::workload::{PingPong, Scrolling, Typing, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One configuration's cost on one workload.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    encodes: u64,
    encoded_kib: u64,
    encode_wall_ms: f64,
    encode_cpu_ms: f64,
    cache_hits: u64,
    saved_kib: u64,
    run_ms: f64,
}

fn config(pipelined: bool, use_move_rectangle: bool, tile_side: u32) -> AhConfig {
    AhConfig {
        use_move_rectangle,
        encode: if pipelined {
            EncodeConfig {
                workers: 4,
                tile: TileConfig::square(tile_side),
                ..EncodeConfig::default()
            }
        } else {
            // The legacy path: serial, cache lives one step.
            EncodeConfig {
                workers: 1,
                tile: TileConfig::square(tile_side),
                cross_frame_cache: false,
                ..EncodeConfig::default()
            }
        },
        ..AhConfig::default()
    }
}

fn outcome(s: &SimSession, run_ms: f64) -> Outcome {
    let snap = s.obs().registry.snapshot();
    let st = s.ah.stats();
    Outcome {
        encodes: st.encodes,
        encoded_kib: st.encoded_bytes / 1024,
        encode_wall_ms: snap.counter("ah.encode.wall_us_total").unwrap_or(0) as f64 / 1000.0,
        encode_cpu_ms: snap.counter("ah.encode.cpu_us_total").unwrap_or(0) as f64 / 1000.0,
        cache_hits: snap.counter("ah.encode.cache.hits").unwrap_or(0),
        saved_kib: snap.counter("ah.encode.cache.bytes_saved").unwrap_or(0) / 1024,
        run_ms,
    }
}

/// Scroll ablation (no MoveRectangle): the whole scrolled area re-encodes
/// every tick. 4 lines × 14 px = 56 px per tick, matched by 56-px tiles
/// and a 504×392 (9×7 tile) content area, so shifted rows rehash to
/// already-cached tiles and only the fresh bottom row misses.
fn run_scroll(pipelined: bool) -> Outcome {
    let mut d = Desktop::new(800, 600);
    let w = d.create_window(1, Rect::new(40, 40, 504, 392), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, config(pipelined, false, 56), 161);
    let p = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        162,
    );
    let mut wl = Scrolling::new(w, 4);
    let mut rng = StdRng::seed_from_u64(163);
    let (_, us) = timed(|| {
        for _ in 0..60 {
            wl.tick(s.ah.desktop_mut(), &mut rng);
            s.step(16_000);
        }
        s.run_until(10_000, 20_000_000, |s| s.converged(p))
            .expect("scroll converges");
    });
    outcome(&s, us / 1000.0)
}

/// Two alternating frames: the cross-frame cache's best case.
fn run_ping_pong(pipelined: bool) -> Outcome {
    let mut d = Desktop::new(800, 600);
    let w = d.create_window(1, Rect::new(60, 50, 400, 300), [245, 245, 245, 255]);
    let mut s = SimSession::new(d, config(pipelined, true, 64), 171);
    let p = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        172,
    );
    let mut wl = PingPong::new(w, Rect::new(32, 32, 256, 192));
    let mut rng = StdRng::seed_from_u64(173);
    let (_, us) = timed(|| {
        for _ in 0..60 {
            wl.tick(s.ah.desktop_mut(), &mut rng);
            s.step(16_000);
        }
        s.run_until(10_000, 20_000_000, |s| s.converged(p))
            .expect("ping-pong converges");
    });
    outcome(&s, us / 1000.0)
}

/// Staggered joiners over mostly-static content: each join's PLI forces a
/// full refresh whose tiles the first encode already paid for. Both
/// windows hold photographic content so every tile is distinct — a solid
/// fill would let even the per-step cache collapse the refresh.
fn run_fan_out(pipelined: bool, emit: bool) -> Outcome {
    let mut d = Desktop::new(1024, 768);
    let w = d.create_window(1, Rect::new(80, 60, 512, 384), [248, 248, 248, 255]);
    let w2 = d.create_window(2, Rect::new(620, 100, 384, 384), [230, 238, 246, 255]);
    d.draw(w, 0, 0, &Content::Photo.frame(512, 384, 7));
    d.draw(w2, 0, 0, &Content::Photo.frame(384, 384, 9));
    let mut s = SimSession::new(d, config(pipelined, true, 64), 181);
    let first = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        182,
    );
    let mut wl = Typing::new(w, 1);
    let mut rng = StdRng::seed_from_u64(183);
    let mut joiners = vec![first];
    let (_, us) = timed(|| {
        for tick in 0..90 {
            if tick == 20 || tick == 45 || tick == 70 {
                // A new participant: its join PLI forces a full refresh of
                // every shared window.
                joiners.push(s.add_udp_participant(
                    Layout::Original,
                    LinkConfig::default(),
                    LinkConfig::default(),
                    None,
                    190 + tick,
                ));
            }
            wl.tick(s.ah.desktop_mut(), &mut rng);
            s.step(16_000);
        }
        s.run_until(10_000, 20_000_000, |s| {
            joiners.iter().all(|&p| s.converged(p))
        })
        .expect("fan-out converges");
    });
    if emit {
        emit_snapshot(&s.obs().registry, "exp_encode_cache");
    }
    outcome(&s, us / 1000.0)
}

fn outcome_json(o: &mut Obj<'_>, outcome: &Outcome) {
    o.u64("encodes", outcome.encodes)
        .u64("encoded_kib", outcome.encoded_kib)
        .f64("encode_wall_ms", round_to(outcome.encode_wall_ms, 1))
        .f64("encode_cpu_ms", round_to(outcome.encode_cpu_ms, 1))
        .u64("cache_hits", outcome.cache_hits)
        .u64("bytes_saved_kib", outcome.saved_kib)
        .f64("run_ms", round_to(outcome.run_ms, 1));
}

fn main() {
    let workloads: Vec<(&str, Outcome, Outcome)> = vec![
        ("scroll", run_scroll(false), run_scroll(true)),
        ("ping-pong", run_ping_pong(false), run_ping_pong(true)),
        (
            "fan-out",
            run_fan_out(false, false),
            run_fan_out(true, true),
        ),
    ];

    let rows: Vec<Vec<String>> = workloads
        .iter()
        .flat_map(|(name, base, pipe)| {
            let row = |cfg: &str, o: &Outcome| {
                vec![
                    format!("{name}/{cfg}"),
                    format!("{}", o.encodes),
                    format!("{}", o.encoded_kib),
                    format!("{:.1}", o.encode_wall_ms),
                    format!("{:.1}", o.encode_cpu_ms),
                    format!("{}", o.cache_hits),
                    format!("{}", o.saved_kib),
                ]
            };
            vec![row("serial+per-step", base), row("pipelined", pipe)]
        })
        .collect();
    print_table(
        "E16: tile-encode pipeline vs serial per-step encoding",
        &[
            "workload/config",
            "encodes",
            "enc KiB",
            "enc wall ms",
            "enc cpu ms",
            "cache hits",
            "saved KiB",
        ],
        &rows,
    );

    let json = json::object(|o| {
        o.str("schema", "adshare-bench-encode/v1")
            .array("workloads", |rows| {
                for (name, base, pipe) in &workloads {
                    let reduction = base.encodes as f64 / pipe.encodes.max(1) as f64;
                    let speedup = base.encode_wall_ms / pipe.encode_wall_ms.max(0.001);
                    rows.object(|o| {
                        o.str("workload", name)
                            .object("baseline", |o| outcome_json(o, base))
                            .object("pipelined", |o| outcome_json(o, pipe))
                            .f64("encode_reduction_x", round_to(reduction, 2))
                            .f64("wall_speedup_x", round_to(speedup, 2));
                    });
                }
            });
    });
    write_bench_json("BENCH_OUT", "BENCH_encode.json", &json);

    // The hard gate is the encode-call count: it is deterministic and
    // machine-independent. Wall-clock is reported alongside — the pool
    // only pays off where cores exist, which a 1-CPU CI runner lacks.
    println!("\nchecks:");
    let mut ok = true;
    for (name, base, pipe) in &workloads {
        let reduction = base.encodes as f64 / pipe.encodes.max(1) as f64;
        let speedup = base.encode_wall_ms / pipe.encode_wall_ms.max(0.001);
        let pass = reduction >= 2.0;
        ok &= pass;
        println!(
            "  {name}: encode calls {} -> {} ({reduction:.1}x) {}; encode wall {:.0} ms -> {:.0} ms ({speedup:.1}x, informational)",
            base.encodes,
            pipe.encodes,
            if pass { "[>=2x: ok]" } else { "[>=2x: MISS]" },
            base.encode_wall_ms,
            pipe.encode_wall_ms,
        );
    }
    if !ok {
        eprintln!("\nexpected >=2x encode-call reduction on every workload");
        std::process::exit(1);
    }
}
