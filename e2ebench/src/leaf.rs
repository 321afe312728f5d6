//! Leaf replay: every datagram the traced stepper saw is fed once more
//! through the leaf layers' public functions, each call timed on its own.
//!
//! The spans of the traced run stop at the session/relay/host boundary —
//! `AppHost::step` is one opaque call from outside. To split its cost
//! without instrumenting the product, the traffic it produced is replayed,
//! single-threaded, through the same leaf functions it uses:
//!
//! * receive side, every leg: RFC 4571 deframe → `RtpPacket::decode` →
//!   `ReorderBuffer` → `RemotingDepacketizer::feed` → codec decode by
//!   payload type;
//! * send side, once per message of the first leg (the AH encodes a tile
//!   once for all viewers): `fast_hash64`, `DamageTracker`,
//!   `EncodePipeline::encode_batch` (natural pass, then a guaranteed-hit
//!   pass) with the codec encode timed inside its closure, and
//!   `zlib::compress`/`decompress` on a sample of the recovered pixels;
//! * send side, every leg: `RemotingMessage::encode`, `fragment`,
//!   `FreshQueue`, `TokenBucket`, `RtpPacket::encode`, RFC 4571 `frame`,
//!   `UdpChannel`/`TcpLink` send and poll, and the RTCP codec on the
//!   feedback the leg produced.
//!
//! These are estimates of where time goes, not a second measurement of the
//! run: the product encodes on worker threads and batches per step, the
//! replay runs one message at a time on one thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use adshare::codec::checksum::fast_hash64;
use adshare::codec::deflate::Level;
use adshare::codec::{zlib, Codec, CodecKind, CodecRegistry};
use adshare::encode::{EncodeConfig, EncodePipeline, TileJob};
use adshare::netsim::tcp::TcpLink;
use adshare::netsim::udp::UdpChannel;
use adshare::prelude::*;
use adshare::rate::{FreshQueue, TokenBucket};
use adshare::remoting::fragment::fragment;
use adshare::remoting::packetizer::RemotingDepacketizer;
use adshare::rtp::framing::{frame, Deframer};
use adshare::rtp::reorder::ReorderBuffer;
use adshare::rtp::rtcp::{decode_compound, encode_compound};
use adshare::rtp::RtpPacket;
use adshare::screen::damage::DamageTracker;

use crate::stepper::LegLog;

/// Recovered pixels sampled for the DEFLATE/INFLATE throughput probes.
const DEFLATE_SAMPLE_BYTES: usize = 4 << 20;

/// What the replay measured: nanoseconds and counts by name, summed over
/// the whole traced round.
#[derive(Debug, Default)]
pub struct LeafTotals {
    /// Nanoseconds per leaf, keyed by the per-layer metric they feed.
    pub ns: BTreeMap<&'static str, u64>,
    /// Counts per leaf.
    pub count: BTreeMap<&'static str, u64>,
    /// Send-side nanoseconds of the first leg alone: the stand-in for the
    /// AH's single egress leg in a relay topology.
    pub first_leg_send_ns: u64,
    /// Send-side nanoseconds of every leg.
    pub all_legs_send_ns: u64,
}

impl LeafTotals {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        *self.ns.entry(name).or_default() += ns;
        (r, ns)
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.count.entry(name).or_default() += n;
    }

    /// Nanoseconds recorded under `name`.
    pub fn ns_of(&self, name: &str) -> u64 {
        self.ns.get(name).copied().unwrap_or(0)
    }

    /// Count recorded under `name`.
    pub fn count_of(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

fn is_rtcp(datagram: &[u8]) -> bool {
    datagram.len() >= 2 && (200..=206).contains(&datagram[1])
}

/// Replay state shared by all legs.
struct Replay {
    out: LeafTotals,
    registry: CodecRegistry,
    pipeline: EncodePipeline,
    damage: DamageTracker,
    /// Codec encode nanoseconds accumulated inside the batch closure, by
    /// codec (`[png, dct, rle or raw]`).
    enc_ns: [AtomicU64; 3],
    deflate_sampled: usize,
    mtu: usize,
}

fn codec_slot(kind: CodecKind) -> usize {
    match kind {
        CodecKind::Png => 0,
        CodecKind::Dct => 1,
        _ => 2,
    }
}

impl Replay {
    /// Decode one update's payload and, for the first leg, push the tile
    /// back through the encode side.
    fn region(&mut self, ru: &adshare::remoting::message::RegionUpdate, first_leg: bool) {
        let Some(codec) = self.registry.get(ru.payload_type).copied() else {
            return;
        };
        let dec = match codec.kind() {
            CodecKind::Png => "codec.png_dec_us",
            CodecKind::Dct => "codec.dct_dec_us",
            _ => "codec.other_dec_us",
        };
        let (img, _) = self.out.time(dec, || codec.decode(&ru.payload));
        let Ok(img) = img else {
            return;
        };
        if !first_leg {
            return;
        }
        self.out
            .add("screen.px", img.width() as u64 * img.height() as u64);
        self.out.add("codec.payload_bytes", ru.payload.len() as u64);
        self.out.add("codec.raw_bytes", img.data().len() as u64);
        let rect = Rect::new(ru.left, ru.top, img.width(), img.height());
        self.out.time("encode.hash_us", || {
            std::hint::black_box(fast_hash64(img.data()));
        });
        let damage = &mut self.damage;
        self.out.time("screen.damage_merge_us", || {
            damage.add(rect);
            std::hint::black_box(damage.take());
        });
        if self.deflate_sampled < DEFLATE_SAMPLE_BYTES {
            self.deflate_sampled += img.data().len();
            let (z, _) = self.out.time("codec.deflate", || {
                zlib::compress(img.data(), Level::Default)
            });
            self.out.add("codec.deflate_bytes", img.data().len() as u64);
            let (raw, _) = self
                .out
                .time("codec.inflate", || zlib::decompress(&z, img.data().len()));
            self.out
                .add("codec.inflate_bytes", raw.map_or(0, |r| r.len()) as u64);
        }
        let slot = codec_slot(codec.kind());
        let pt = ru.payload_type;
        let enc_ns = &self.enc_ns;
        let encode = |image: &Image| {
            let t0 = Instant::now();
            let bytes = codec.encode(image);
            enc_ns[slot].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            (pt, bytes)
        };
        let again = TileJob {
            rect,
            image: img.clone(),
        };
        let pipeline = &mut self.pipeline;
        self.out.time("encode.batch_us", || {
            std::hint::black_box(pipeline.encode_batch(
                0,
                vec![TileJob { rect, image: img }],
                encode,
            ));
        });
        self.out.time("encode.batch_warm_us", || {
            std::hint::black_box(pipeline.encode_batch(0, vec![again], encode));
        });
    }

    /// The per-leg send side for one recovered message.
    fn send_side(
        &mut self,
        msg: &RemotingMessage,
        tcp: bool,
        now_us: u64,
        leg: &mut LegSend,
    ) -> u64 {
        let mut ns = 0;
        ns += self
            .out
            .time("remoting.msg_encode_us", || {
                std::hint::black_box(msg.encode());
            })
            .1;
        // TCP legs fragment at the RFC 4571 frame limit, UDP at the MTU.
        let budget = if tcp { 60_000 } else { self.mtu };
        let (frags, t) = self
            .out
            .time("remoting.fragment_us", || fragment(msg, budget));
        ns += t;
        let bytes: u64 = frags
            .as_ref()
            .map_or(0, |f| f.iter().map(|p| p.payload.len() as u64).sum());
        self.out
            .add("remoting.fragments", frags.map_or(0, |f| f.len()) as u64);
        let queue = &mut leg.queue;
        ns += self
            .out
            .time("rate.queue_us", || {
                queue.push(1, Rect::new(0, 0, 1, 1), now_us, bytes, ());
                std::hint::black_box(queue.pop_budget(None));
            })
            .1;
        let bucket = &mut leg.bucket;
        ns += self
            .out
            .time("rate.bucket_us", || {
                bucket.refill(now_us);
                std::hint::black_box(bucket.budget());
                bucket.consume(bytes);
            })
            .1;
        ns
    }

    /// The per-leg send side for one recovered packet.
    fn send_packet(&mut self, pkt: &RtpPacket, tcp: bool, now_us: u64, leg: &mut LegSend) -> u64 {
        let (wire, mut ns) = self.out.time("rtp.encode_us", || pkt.encode());
        if tcp {
            let (framed, t) = self.out.time("rtp.framing_us", || frame(&wire));
            ns += t;
            let link = &mut leg.tcp;
            ns += self
                .out
                .time("netsim.tcp_us", || {
                    if let Ok(f) = &framed {
                        link.send(now_us, f);
                    }
                    // Far enough ahead that everything accepted has arrived.
                    std::hint::black_box(link.recv(now_us + 1_000_000));
                })
                .1;
        } else {
            let link = &mut leg.udp;
            ns += self
                .out
                .time("netsim.udp_us", || {
                    link.send(now_us, &wire);
                    std::hint::black_box(link.poll(now_us + 1_000_000));
                })
                .1;
        }
        ns
    }
}

/// Per-leg send-side objects (one pacer queue, bucket and link per leg,
/// as in the product).
struct LegSend {
    queue: FreshQueue<()>,
    bucket: TokenBucket,
    udp: UdpChannel,
    tcp: TcpLink,
}

/// Replay every leg's log. `mtu` is the AH's RTP payload budget.
pub fn replay(logs: &[LegLog], mtu: usize) -> LeafTotals {
    let mut rp = Replay {
        out: LeafTotals::default(),
        registry: CodecRegistry::default(),
        // One worker, so the codec time measured inside the closure is the
        // batch's own time and the two subtract cleanly.
        pipeline: EncodePipeline::new(EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        }),
        damage: DamageTracker::new(AhConfig::default().damage_strategy),
        enc_ns: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        deflate_sampled: 0,
        mtu,
    };
    for (leg_idx, log) in logs.iter().enumerate() {
        let first_leg = leg_idx == 0;
        let mut leg = LegSend {
            queue: FreshQueue::new(),
            bucket: TokenBucket::new(Some(6_000_000), 100_000, 2 * mtu as u64),
            udp: UdpChannel::new(LinkConfig::default(), leg_idx as u64),
            tcp: TcpLink::new(TcpConfig {
                rate_bps: 1_000_000_000,
                send_buf: 8 << 20,
                ..TcpConfig::default()
            }),
        };
        let mut deframer = Deframer::default();
        let mut reorder = ReorderBuffer::new(256);
        let mut depack = RemotingDepacketizer::new();
        let mut now_us = 0u64;
        let mut send_ns = 0u64;
        for chunk in &log.rx {
            now_us += 1_000;
            let frames: Vec<Vec<u8>> = if log.tcp {
                rp.out
                    .time("rtp.framing_us", || {
                        deframer.push(chunk);
                        let mut v = Vec::new();
                        while let Ok(Some(f)) = deframer.pop() {
                            v.push(f);
                        }
                        v
                    })
                    .0
            } else {
                vec![chunk.clone()]
            };
            for dg in frames {
                if is_rtcp(&dg) {
                    rp.out.time("rtp.rtcp_us", || {
                        if let Ok(pkts) = decode_compound(&dg) {
                            std::hint::black_box(encode_compound(&pkts));
                        }
                    });
                    continue;
                }
                let (pkt, _) = rp.out.time("rtp.decode_us", || RtpPacket::decode(&dg));
                let Ok(pkt) = pkt else {
                    continue;
                };
                rp.out.add("rtp.packets", 1);
                send_ns += rp.send_packet(&pkt, log.tcp, now_us, &mut leg);
                // TCP is ordered and reliable: the participant bypasses
                // the reorder buffer there, and so does the replay.
                let ready: Vec<RtpPacket> = if log.tcp {
                    vec![pkt]
                } else {
                    rp.out
                        .time("rtp.reorder_us", || {
                            reorder.ingest(pkt);
                            std::iter::from_fn(|| reorder.pop_ready()).collect()
                        })
                        .0
                };
                for p in ready {
                    let (msg, _) = rp.out.time("remoting.reassemble_us", || depack.feed(&p));
                    let Ok(Some(msg)) = msg else {
                        continue;
                    };
                    send_ns += rp.send_side(&msg, log.tcp, now_us, &mut leg);
                    if let RemotingMessage::RegionUpdate(ru) = &msg {
                        rp.region(ru, first_leg);
                    }
                }
            }
        }
        for rtcp in &log.rtcp {
            rp.out.time("rtp.rtcp_us", || {
                if let Ok(pkts) = decode_compound(rtcp) {
                    std::hint::black_box(encode_compound(&pkts));
                }
            });
        }
        let (allocs, copied) = depack.copy_stats();
        rp.out.add("remoting.reassembly_allocs", allocs);
        rp.out.add("remoting.reassembly_bytes_copied", copied);
        rp.out.all_legs_send_ns += send_ns;
        if first_leg {
            rp.out.first_leg_send_ns = send_ns;
        }
    }
    for (slot, name) in ["codec.png_enc_us", "codec.dct_enc_us", "codec.other_enc_us"]
        .into_iter()
        .enumerate()
    {
        rp.out
            .ns
            .insert(name, rp.enc_ns[slot].load(Ordering::Relaxed));
    }
    rp.out
}
