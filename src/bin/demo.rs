//! `adshare-demo` — run an application host or a viewer over real UDP.
//!
//! ```text
//! adshare-demo ah     --port 6000 [--workload typing|scroll|video] [--seconds 10]
//! adshare-demo view   --connect 127.0.0.1:6000 [--seconds 10] [--ppm out.ppm]
//! adshare-demo relay  --connect 127.0.0.1:6000 --port 6100 [--seconds 10]
//!                     [--blackbox-dir DIR]   # fan-out relay between AH and viewers
//! adshare-demo selftest            # AH + viewer over loopback, in-process
//! adshare-demo sim    [--seconds 5] [--trace out.json] # simulated session
//!                     [--capture out.bin] [--manifest out.json]
//!                     # consent-gated wire capture + replay manifest
//! adshare-demo replay --capture file.bin [--manifest file.json]
//!                     [--trace out.json]  # deterministic replay, bit-exact
//!                     # digest checks, historical Perfetto export
//! adshare-demo host   [--sessions 64] [--seconds 5] [--stats out.json]
//!                     # multi-tenant host: N simulated sessions, one process
//! ```
//!
//! The AH shares a simulated desktop driven by a synthetic workload; any
//! number of viewers may join (each bootstraps with a PLI, §4.3) and lost
//! datagrams are repaired via Generic NACK. The viewer can dump what it
//! sees to a PPM image. A `relay` subscribes to the AH (or another relay)
//! as one receiver and re-serves any number of viewers, answering their
//! NACKs from its shared retransmit cache and serving late joiners from
//! its shadow state; both the AH and the relay evaluate the `adshare-obs`
//! health rules live and print transitions, and the relay dumps a
//! flight-recorder black box on CRITICAL.
//!
//! The `sim` mode runs an AH and a lossy UDP viewer in the deterministic
//! simulator and prints the `adshare-obs` per-stage pipeline latency
//! breakdown (damage → encode → fragment → transport → decode) with
//! p50/p90/p99 for the frames that were delivered.
//!
//! The `host` mode runs N complete sessions inside one `adshare-host`
//! [`MultiHost`] — shared encode cache, global worker pool, readiness
//! event loop — and prints the host-level roll-up (cross-session cache
//! hit rate, per-session service counts, pool pressure).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use adshare::netsim::real::RealUdp;
use adshare::obs::{DumpSink, HealthReport, HealthStatus};
use adshare::prelude::*;
use adshare::screen::workload::{Scrolling, Typing, Video, Workload};
use adshare::session::ParticipantHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("selftest");
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seconds: u64 = opt("--seconds").and_then(|s| s.parse().ok()).unwrap_or(10);
    match mode {
        "ah" => {
            let port: u16 = opt("--port").and_then(|s| s.parse().ok()).unwrap_or(6000);
            let workload = opt("--workload").unwrap_or_else(|| "typing".into());
            run_ah(port, &workload, seconds);
        }
        "view" => {
            let connect = opt("--connect").unwrap_or_else(|| "127.0.0.1:6000".into());
            let addr: SocketAddr = connect.parse().expect("--connect host:port");
            run_viewer(addr, seconds, opt("--ppm"));
        }
        "relay" => {
            let connect = opt("--connect").unwrap_or_else(|| "127.0.0.1:6000".into());
            let addr: SocketAddr = connect.parse().expect("--connect host:port");
            let port: u16 = opt("--port").and_then(|s| s.parse().ok()).unwrap_or(6100);
            run_relay(port, addr, seconds, opt("--blackbox-dir"));
        }
        "selftest" => selftest(),
        "sim" => run_sim(
            seconds.min(60),
            opt("--trace"),
            opt("--capture"),
            opt("--manifest"),
        ),
        "replay" => {
            let capture = opt("--capture").unwrap_or_else(|| {
                eprintln!("replay requires --capture file.bin");
                std::process::exit(2);
            });
            run_replay(&capture, opt("--manifest"), opt("--trace"));
        }
        "host" => {
            let sessions: usize = opt("--sessions").and_then(|s| s.parse().ok()).unwrap_or(64);
            run_host_demo(sessions, seconds.min(60), opt("--stats"));
        }
        other => {
            eprintln!(
                "unknown mode {other:?}; use: ah | view | relay | selftest | sim | replay | host"
            );
            std::process::exit(2);
        }
    }
}

fn make_workload(name: &str, win: adshare::screen::wm::WindowId) -> Box<dyn Workload> {
    match name {
        "scroll" => Box::new(Scrolling::new(win, 1)),
        "video" => Box::new(Video::new(win, Rect::new(20, 20, 320, 240))),
        _ => Box::new(Typing::new(win, 3)),
    }
}

/// One-line health summary: overall verdict plus any rules that are not OK.
fn health_line(report: &HealthReport) -> String {
    let failing: Vec<String> = report
        .rules
        .iter()
        .filter(|r| r.status != HealthStatus::Ok)
        .map(|r| format!("{} {} ({:.3})", r.name, r.status.as_str(), r.value))
        .collect();
    if failing.is_empty() {
        format!("health: {}", report.overall.as_str())
    } else {
        format!(
            "health: {} — {}",
            report.overall.as_str(),
            failing.join(", ")
        )
    }
}

/// Run an AH on `port`: every address that sends it a datagram becomes a
/// participant over a raw leg (it PLIs for initial state, NACKs what it
/// lost), and each step ships what the AH sent that leg to its address.
fn run_ah(port: u16, workload: &str, seconds: u64) {
    let sock = RealUdp::bind_port(port).expect("bind");
    println!(
        "AH listening on {} — sharing a 400x300 window with the '{workload}' workload",
        sock.local_addr().expect("addr")
    );
    let mut desktop = Desktop::new(640, 480);
    let win = desktop.create_window(1, Rect::new(50, 40, 400, 300), [250, 250, 250, 255]);
    let mut ah = AppHost::new(desktop, AhConfig::default(), 0xAD54A3E);
    let obs = adshare::obs::Obs::new();
    ah.attach_obs(obs.clone());
    let mut wl = make_workload(workload, win);
    let mut wl_rng = StdRng::seed_from_u64(7);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut viewers: HashMap<SocketAddr, ParticipantHandle> = HashMap::new();
    let mut last_tick = Instant::now();
    let mut last_health = Instant::now();
    while Instant::now() < deadline {
        let now = start.elapsed().as_micros() as u64;
        for (from, dg) in sock.recv_all_from().expect("recv") {
            let user_id = viewers.len() as u16 + 1;
            let viewer = *viewers.entry(from).or_insert_with(|| {
                println!("viewer joined from {from}");
                ah.attach_raw(user_id)
            });
            ah.handle_rtcp(viewer, &dg, now);
        }
        if last_tick.elapsed() >= Duration::from_millis(33) {
            last_tick = Instant::now();
            wl.tick(ah.desktop_mut(), &mut wl_rng);
        }
        ah.step(now);
        for (addr, &viewer) in &viewers {
            for dg in ah.poll_udp_bytes(viewer, now) {
                let _ = sock.send_to(&dg, *addr);
            }
        }
        // Live health: evaluate the rolling event window every 2 s and
        // surface anything that has degraded.
        if last_health.elapsed() >= Duration::from_secs(2) && !viewers.is_empty() {
            last_health = Instant::now();
            println!("{}", health_line(&obs.health_check(now)));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = obs.health_check(start.elapsed().as_micros() as u64);
    println!(
        "AH done: served {} viewer(s), final {}",
        viewers.len(),
        health_line(&report)
    );
}

/// Run a fan-out relay: subscribe to `connect` (an AH or another relay) as
/// one receiver and re-serve every viewer that PLI-joins on `port`. NACKs
/// are answered from the shared retransmit cache, late joiners from the
/// shadow state; a CRITICAL health transition dumps a flight-recorder
/// black box into `blackbox_dir`.
fn run_relay(port: u16, connect: SocketAddr, seconds: u64, blackbox_dir: Option<String>) {
    use adshare::relay::{RelayConfig, RelayNode};

    let mut up = RealUdp::bind().expect("bind upstream");
    up.set_peer(connect);
    let down = RealUdp::bind_port(port).expect("bind downstream");
    println!(
        "relay: upstream {connect}, serving viewers on {}",
        down.local_addr().expect("addr")
    );
    let obs = adshare::obs::Obs::new();
    if let Some(dir) = blackbox_dir {
        std::fs::create_dir_all(&dir).expect("create blackbox dir");
        println!("black-box dumps on CRITICAL -> {dir}/");
        obs.health
            .lock()
            .unwrap()
            .set_sink(DumpSink::Dir(dir.into()));
    }
    let mut node = RelayNode::new(RelayConfig::default(), 0);
    node.attach_obs(obs.clone());
    let start = Instant::now();
    node.subscribe(0);
    if let Some(bytes) = node.take_upstream_rtcp() {
        let _ = up.send(&bytes);
    }
    let mut legs: HashMap<SocketAddr, usize> = HashMap::new();
    let deadline = start + Duration::from_secs(seconds);
    let mut last_health = Instant::now();
    let mut was_critical = false;
    while Instant::now() < deadline {
        let now = start.elapsed().as_micros() as u64;
        for dg in up.recv_all().expect("recv upstream") {
            node.ingest_upstream(&dg, now);
        }
        for (from, dg) in down.recv_all_from().expect("recv downstream") {
            let leg = *legs.entry(from).or_insert_with(|| {
                let leg = node.add_leg_raw(None);
                println!("viewer joined from {from} (leg {leg})");
                leg
            });
            node.handle_leg_rtcp(leg, &dg, now);
        }
        node.step(now);
        if let Some(bytes) = node.take_upstream_rtcp() {
            let _ = up.send(&bytes);
        }
        for (addr, &leg) in &legs {
            for out in node.poll_leg(leg, now) {
                let _ = down.send_to(&out, *addr);
            }
        }
        if last_health.elapsed() >= Duration::from_secs(2) && !legs.is_empty() {
            last_health = Instant::now();
            let report = obs.health_check(now);
            println!("{}", health_line(&report));
            let critical = report.overall == HealthStatus::Critical;
            if critical && !was_critical {
                println!("CRITICAL: black box dumped");
            }
            was_critical = critical;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = node.stats();
    println!(
        "relay done: {} leg(s), forwarded {} packets / {} bytes, NACKs absorbed {} \
         (suppressed {}), escalated upstream {}, PLIs coalesced {}, catch-ups {}",
        legs.len(),
        stats.forwarded_packets,
        stats.forwarded_bytes,
        stats.nacks_absorbed_seqs,
        stats.nacks_suppressed_seqs,
        stats.seqs_escalated,
        stats.plis_coalesced,
        stats.catchups_served,
    );
}

fn run_viewer(addr: SocketAddr, seconds: u64, ppm: Option<String>) {
    let mut sock = RealUdp::bind().expect("bind");
    sock.set_peer(addr);
    println!("viewer connecting to {addr}");
    let mut participant = Participant::new(1, Layout::Original, true, 99);
    participant.request_refresh();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    while Instant::now() < deadline {
        if let Some(rtcp) = participant.take_rtcp() {
            let _ = sock.send(&rtcp);
        }
        for dg in sock.recv_all().expect("recv") {
            let ticks = (start.elapsed().as_micros() as u64) * 9 / 100;
            participant.handle_datagram(&dg, ticks);
        }
        participant.tick((start.elapsed().as_micros() as u64) * 9 / 100);
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = participant.stats();
    println!(
        "viewer done: synced={} regions={} moves={} NACKs={} PLIs={} decode errors={}",
        participant.synced(),
        stats.regions_applied,
        stats.moves_applied,
        stats.nacks_sent,
        stats.plis_sent,
        stats.decode_errors,
    );
    if let Some(path) = ppm {
        let frame = participant.render(640, 480);
        std::fs::write(&path, frame.to_ppm()).expect("write ppm");
        println!("wrote {path}");
    }
}

/// Run an AH plus one lossy UDP viewer inside the deterministic simulator
/// and print the per-stage pipeline latency breakdown that the obs layer's
/// frame tracing collected for every delivered `RegionUpdate`, plus the
/// health engine's verdict. With `--trace out.json`, export the merged
/// stage-span + flight-recorder timeline as Chrome-trace JSON (openable at
/// ui.perfetto.dev). With `--capture out.bin`, arm a consent-gated wire
/// capture of the whole session and write it (plus, with `--manifest`, the
/// `adshare-capture-manifest/v1` sidecar `adshare-demo replay` verifies
/// against).
fn run_sim(
    seconds: u64,
    trace_out: Option<String>,
    capture_out: Option<String>,
    manifest_out: Option<String>,
) {
    use adshare::capture::{manifest_json, CaptureMode};
    use adshare::netsim::udp::LinkConfig;
    use adshare::obs::STAGE_NAMES;
    use adshare::rate::RateConfig;
    use adshare::session::{AhConfig, Layout, SimSession};

    println!(
        "sim: AH + one UDP viewer (1% loss, 20 ms delay), {seconds} simulated second(s) of typing"
    );
    let mut desktop = Desktop::new(640, 480);
    let win = desktop.create_window(1, Rect::new(50, 40, 400, 300), [250, 250, 250, 255]);
    let cfg = AhConfig {
        adaptive_rate: Some(RateConfig::default()),
        ..AhConfig::default()
    };
    let mut s = SimSession::new(desktop, cfg, 0xD37);
    if capture_out.is_some() {
        // The demo operator asked for the capture, which is the consent.
        s.arm_capture(true, CaptureMode::Full, 0xD37)
            .expect("consent supplied");
        println!("capture armed (full retention, consented)");
    }
    let link = LinkConfig {
        loss: 0.01,
        delay_us: 20_000,
        jitter_us: 4_000,
        ..Default::default()
    };
    let p = s.add_udp_participant(
        Layout::Original,
        link,
        LinkConfig::default(),
        Some(8_000_000),
        5,
    );
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("initial sync");

    let mut wl = Typing::new(win, 3);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..seconds * 30 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("settle");

    let snap = s.obs().registry.snapshot();
    let frames = snap.histogram("pipeline.total_us").map_or(0, |h| h.count);
    println!("\nper-stage pipeline latency over {frames} delivered frames (µs):\n");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "stage", "count", "p50", "p90", "p99", "max"
    );
    for stage in STAGE_NAMES {
        if let Some(h) = snap.histogram(&format!("pipeline.{stage}_us")) {
            println!(
                "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                stage,
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
        }
    }
    // Where the encode CPU actually goes, by codec (cache misses only —
    // hits cost nothing). Fed by the codec.* counters the encode path emits.
    println!("\nencode CPU by codec (cache misses):\n");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "codec", "encodes", "cpu µs", "bytes", "p50 µs", "max µs"
    );
    for kind in adshare::codec::CodecKind::ALL {
        let name = kind.encoding_name();
        let encodes = snap.counter(&format!("codec.{name}.encodes")).unwrap_or(0);
        if encodes == 0 {
            continue;
        }
        let h = snap.histogram(&format!("codec.{name}.encode_us"));
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>8} {:>8}",
            name,
            encodes,
            snap.counter(&format!("codec.{name}.cpu_us_total"))
                .unwrap_or(0),
            snap.counter(&format!("codec.{name}.bytes")).unwrap_or(0),
            h.as_ref().map_or(0, |h| h.p50()),
            h.as_ref().map_or(0, |h| h.max),
        );
    }

    println!(
        "\nretransmissions: {}   rtp packets received: {}   viewer converged: {}",
        snap.counter("ah.retransmissions").unwrap_or(0),
        snap.counter("participant.0.rtp_rx_packets").unwrap_or(0),
        s.converged(p),
    );

    // Work spared by content addressing, at either end: tiles the AH did
    // not encode again, updates the viewer did not decode again.
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let hits = snap.counter("ah.encode.cache.hits").unwrap_or(0);
    let misses = snap.counter("ah.encode.cache.misses").unwrap_or(0);
    let viewer = s.participant(p).stats();
    let spared = viewer.tiles_reused + viewer.tiles_already_shown;
    println!(
        "AH encode cache hit ratio: {:.2} ({hits} of {})   viewer tile reuse ratio: {:.2} \
         ({spared} of {} updates; {} KiB parked)",
        ratio(hits, hits + misses),
        hits + misses,
        ratio(spared, viewer.regions_applied),
        viewer.regions_applied,
        viewer.parked_bytes >> 10,
    );

    // The congestion controller's view of the path (adshare-rate).
    use adshare::obs::MetricSnapshot;
    let gauge = |name: &str| match snap.get(name) {
        Some(MetricSnapshot::Gauge(v)) => *v,
        _ => 0,
    };
    let tier = match gauge("ah.participant.0.rate.tier") {
        0 => "lossless",
        1 => "balanced",
        _ => "economy",
    };
    println!("\nrate control (adaptive, 8 Mb/s link cap):\n");
    println!(
        "{:<22} {:>12}\n{:<22} {:>12}\n{:<22} {:>12}\n{:<22} {:>12}\n{:<22} {:>12}",
        "estimate (kb/s)",
        gauge("ah.participant.0.rate.rate_bps") / 1000,
        "codec tier",
        tier,
        "updates superseded",
        snap.counter("ah.participant.0.rate.superseded")
            .unwrap_or(0),
        "queue depth / bytes",
        format!(
            "{} / {}",
            gauge("ah.participant.0.rate.queue_depth"),
            gauge("ah.participant.0.rate.queue_bytes")
        ),
        "refreshes throttled",
        snap.counter("ah.participant.0.rate.refresh_throttled")
            .unwrap_or(0),
    );

    // Health engine verdict over the final window of events + metrics.
    let report = s.obs().health_check(s.clock.now_us());
    println!("\nhealth: {}", report.overall.as_str());
    for r in &report.rules {
        println!(
            "  {:<16} {:<9} value {:>10.3}  threshold {:>10.3}  ({})",
            r.name,
            r.status.as_str(),
            r.value,
            r.threshold,
            r.detail
        );
    }

    // Chrome-trace / Perfetto timeline export.
    if let Some(path) = trace_out {
        let json = s.obs().export_chrome_trace();
        adshare::obs::validate_chrome_trace(&json).expect("generated trace validates");
        std::fs::write(&path, &json).expect("write trace");
        println!(
            "\nwrote {path} ({} bytes) — open at ui.perfetto.dev or chrome://tracing",
            json.len()
        );
    }

    // Wire-capture flush: freeze the sink with the flight-recorder ring
    // embedded, then write the file and its manifest sidecar.
    if let Some(path) = capture_out {
        let manifest = s.capture_manifest().expect("capture armed");
        let cap = s.finalize_capture().expect("capture armed");
        let stats = cap.stats();
        cap.write_to(std::path::Path::new(&path))
            .expect("write capture");
        println!(
            "\nwrote {path}: {} record(s), {} payload bytes, wire digest 0x{:016x}",
            stats.records, stats.payload_bytes, manifest.wire_digest,
        );
        if let Some(mpath) = manifest_out {
            std::fs::write(&mpath, manifest_json(&manifest)).expect("write manifest");
            println!("wrote {mpath} (adshare-capture-manifest/v1)");
        }
    }
}

/// Replay a capture file through fresh participants at the recorded
/// virtual cadence and verify the bit-exactness claims: the capture's
/// egress wire digest and (when a manifest is supplied) every decoded
/// surface digest. With `--trace out.json`, render the capture's embedded
/// flight-recorder events plus per-packet instants as a historical
/// Chrome-trace / Perfetto timeline. Exits non-zero on any mismatch.
fn run_replay(capture_path: &str, manifest_path: Option<String>, trace_out: Option<String>) {
    use adshare::capture::{parse_manifest, read_capture};
    use adshare::session::replay::{historical_chrome_trace, replay};

    let capture = read_capture(std::path::Path::new(capture_path)).expect("read capture");
    println!(
        "replay: {capture_path} — session {}, {} record(s), consent={}, ring={}",
        capture.header.session_id,
        capture.records.len(),
        capture.header.consent,
        capture.header.ring,
    );
    let manifest = manifest_path.map(|p| {
        let text = std::fs::read_to_string(&p).expect("read manifest");
        parse_manifest(&text).expect("parse manifest")
    });
    let report = replay(&capture, manifest.as_ref());
    println!(
        "fed {} ingress record(s), honoured {} gap marker(s)",
        report.records_fed, report.gaps_skipped
    );
    println!(
        "wire digest 0x{:016x} — {}",
        report.wire_digest,
        match report.recorded_wire_digest {
            Some(rec) if rec == report.wire_digest => "matches manifest".to_string(),
            Some(rec) => format!("MISMATCH (manifest claims 0x{rec:016x})"),
            None => "no manifest to verify against".to_string(),
        }
    );
    for sc in &report.surfaces {
        println!(
            "participant {}: surface digest 0x{:016x} — {}",
            sc.actor,
            sc.replayed,
            match sc.recorded {
                Some(rec) if rec == sc.replayed => "bit-exact".to_string(),
                Some(rec) => format!("MISMATCH (recorded 0x{rec:016x})"),
                None => "not recorded".to_string(),
            }
        );
    }
    if let Some(path) = trace_out {
        let json = historical_chrome_trace(&capture);
        adshare::obs::validate_chrome_trace(&json).expect("historical trace validates");
        std::fs::write(&path, &json).expect("write trace");
        println!(
            "wrote {path} ({} bytes) — historical timeline, open at ui.perfetto.dev",
            json.len()
        );
    }
    if report.bit_exact() {
        println!("replay verdict: bit-exact");
    } else {
        eprintln!("replay verdict: MISMATCH");
        std::process::exit(1);
    }
}

/// Run N complete simulated sessions inside one [`MultiHost`]: every
/// session gets its own desktop, `AppHost`, and lossy UDP viewer; all of
/// them share one encode cache and worker pool and are stepped by the
/// readiness event loop. Prints the host roll-up and optionally writes the
/// `adshare-host-stats/v1` document.
fn run_host_demo(sessions: usize, seconds: u64, stats_out: Option<String>) {
    use adshare::host::HostConfig;
    use adshare::netsim::udp::LinkConfig;
    use adshare::session::{AhConfig, Layout};

    println!(
        "host: {sessions} tenant session(s), 1 lossy UDP viewer each, \
         {seconds} simulated second(s)"
    );
    let mut host = MultiHost::new(HostConfig::default());
    let interval = adshare::host::CAPTURE_INTERVAL_US;
    let t_end = seconds * 1_000_000;
    for i in 0..sessions {
        let mut desktop = Desktop::new(640, 480);
        let win = desktop.create_window(1, Rect::new(50, 40, 320, 240), [250, 250, 250, 255]);
        let idx = host.add_session(desktop, AhConfig::default(), i as u64, CacheSharing::Shared);
        host.session_mut(idx).add_udp_participant(
            Layout::Original,
            LinkConfig {
                loss: 0.01,
                delay_us: 20_000,
                ..Default::default()
            },
            LinkConfig::default(),
            None,
            i as u64 ^ 0x5eed,
        );
        // Four content classes: same-class tenants produce identical tiles
        // for the shared cache to deduplicate.
        let class = i % 4;
        let mut wl = Typing::new(win, 1 + (class as u32 % 2));
        let mut rng = StdRng::seed_from_u64(class as u64);
        host.set_workload(idx, move |sess, now| {
            wl.tick(sess.ah.desktop_mut(), &mut rng);
            now < t_end.saturating_sub(500_000) // stop early, let it drain
        });
    }
    host.run_until(t_end);

    let converged = (0..sessions)
        .filter(|&i| host.session(i).converged(0))
        .count();
    let st = host.stats();
    println!(
        "\nhost done: {}/{} viewers converged over {} services \
         ({}..{} per session)",
        converged, sessions, st.services, st.steps_min, st.steps_max
    );
    println!(
        "shared cache: {}% hit rate ({} hits / {} misses), {} entries / {} KiB \
         across {} shards, {} evictions",
        st.cache_hit_rate_pct,
        st.cache_hits,
        st.cache_misses,
        st.cache_entries,
        st.cache_bytes >> 10,
        st.cache_shards,
        st.cache_evictions,
    );
    println!(
        "worker pool: {} permits, {} inline fallbacks; host cpu {} ms over {} ms wall",
        st.pool_max_workers,
        st.pool_inline_fallbacks,
        st.cpu_us / 1000,
        st.wall_us / 1000,
    );
    println!(
        "capture interval {} ms; {} session(s) still armed at shutdown",
        interval / 1000,
        st.active_sessions
    );
    if let Some(path) = stats_out {
        std::fs::write(&path, st.to_json()).expect("write host stats");
        println!("wrote {path} (adshare-host-stats/v1)");
    }
}

fn selftest() {
    println!("selftest: AH + viewer over loopback for 3 s");
    let ah = std::thread::spawn(|| run_ah(16001, "typing", 4));
    std::thread::sleep(Duration::from_millis(200));
    run_viewer("127.0.0.1:16001".parse().expect("addr"), 3, None);
    let _ = ah.join();
    println!("selftest complete");
}
