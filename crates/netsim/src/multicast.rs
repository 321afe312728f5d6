//! Multicast fan-out: one AH send reaches every group member, each across
//! its own impaired path (§4.2: "The AH can support both multicast and
//! unicast transmissions"; §4.3: "Several simultaneous multicast sessions
//! with different transmission rates can be created").

use adshare_obs::Registry;
use bytes::Bytes;

use crate::udp::{LinkConfig, UdpChannel, UdpStats};

adshare_obs::metric_set! {
    /// What the AH sends into a group, counted once however many members
    /// receive it.
    struct EgressCounters {
        /// Datagrams sent into the group.
        sent: counter "tx_datagrams",
        /// Bytes sent into the group.
        bytes_sent: counter "tx_bytes",
    }
}

/// A multicast group: one ingress, N member channels.
#[derive(Debug, Default)]
pub struct MulticastGroup {
    members: Vec<UdpChannel>,
    egress: EgressCounters,
}

impl MulticastGroup {
    /// An empty group.
    pub fn new() -> Self {
        MulticastGroup::default()
    }

    /// Add a member with its own path characteristics; returns its index.
    pub fn join(&mut self, cfg: LinkConfig, seed: u64) -> usize {
        self.members.push(UdpChannel::new(cfg, seed));
        self.members.len() - 1
    }

    /// Remove a member (e.g. participant left). Later indices shift down.
    pub fn leave(&mut self, member: usize) {
        if member < self.members.len() {
            self.members.remove(member);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Send one datagram to every member. The AH pays the cost once —
    /// that is multicast's whole point, and experiment E7 measures it —
    /// and so does the allocator: every member queues the sender's buffer.
    pub fn send_bytes(&mut self, now_us: u64, payload: &Bytes) {
        self.egress.sent.inc();
        self.egress.bytes_sent.add(payload.len() as u64);
        for m in &mut self.members {
            m.send_bytes(now_us, payload);
        }
    }

    /// [`MulticastGroup::send_bytes`] for a borrowed datagram, copied once
    /// for the whole group.
    pub fn send(&mut self, now_us: u64, payload: &[u8]) {
        self.send_bytes(now_us, &Bytes::copy_from_slice(payload));
    }

    /// Poll one member's deliveries.
    pub fn poll(&mut self, member: usize, now_us: u64) -> Vec<Bytes> {
        self.members
            .get_mut(member)
            .map(|m| m.poll(now_us))
            .unwrap_or_default()
    }

    /// The AH-side egress counters: (datagrams, bytes) — independent of
    /// group size.
    pub fn egress(&self) -> (u64, u64) {
        (self.egress.sent.get(), self.egress.bytes_sent.get())
    }

    /// Earliest pending delivery across all members, for event-driven
    /// stepping.
    pub fn next_delivery_us(&self) -> Option<u64> {
        self.members
            .iter()
            .filter_map(|m| m.next_delivery_us())
            .min()
    }

    /// A member's delivery statistics.
    pub fn member_stats(&self, member: usize) -> Option<UdpStats> {
        self.members.get(member).map(|m| m.stats())
    }

    /// Adopt the group's egress counters plus each current member's channel
    /// counters into `registry`: egress under `{prefix}.tx_*`, member `i`
    /// under `{prefix}.member.{i}.*`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.egress.register(registry, prefix);
        for (i, m) in self.members.iter().enumerate() {
            m.register_metrics(registry, &format!("{prefix}.member.{i}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_member_receives() {
        let mut g = MulticastGroup::new();
        for i in 0..5 {
            g.join(
                LinkConfig {
                    delay_us: 1_000 * (i + 1),
                    ..Default::default()
                },
                i,
            );
        }
        g.send(0, b"frame");
        for m in 0..5 {
            let got = g.poll(m, 100_000);
            assert_eq!(got, vec![b"frame".to_vec()], "member {m}");
        }
        assert_eq!(g.egress(), (1, 5));
    }

    #[test]
    fn members_share_the_senders_buffer() {
        let mut g = MulticastGroup::new();
        for i in 0..3 {
            g.join(LinkConfig::default(), i);
        }
        let datagram = Bytes::copy_from_slice(b"frame");
        g.send_bytes(0, &datagram);
        for m in 0..3 {
            let got = g.poll(m, 100_000);
            assert!(
                std::ptr::eq(got[0].as_ptr(), datagram.as_ptr()),
                "member {m}"
            );
        }
    }

    #[test]
    fn egress_counted_once_regardless_of_size() {
        let mut g = MulticastGroup::new();
        for i in 0..64 {
            g.join(LinkConfig::default(), i);
        }
        for _ in 0..10 {
            g.send(0, &[0u8; 1000]);
        }
        assert_eq!(g.egress(), (10, 10_000));
    }

    #[test]
    fn per_member_loss_is_independent() {
        let mut g = MulticastGroup::new();
        g.join(
            LinkConfig {
                loss: 0.0,
                delay_us: 0,
                ..Default::default()
            },
            1,
        );
        g.join(
            LinkConfig {
                loss: 1.0,
                delay_us: 0,
                ..Default::default()
            },
            2,
        );
        for _ in 0..100 {
            g.send(0, b"x");
        }
        assert_eq!(g.poll(0, 1_000_000).len(), 100);
        assert_eq!(g.poll(1, 1_000_000).len(), 0);
    }

    #[test]
    fn group_counters_adoptable_into_registry() {
        let mut g = MulticastGroup::new();
        g.join(
            LinkConfig {
                delay_us: 0,
                ..Default::default()
            },
            1,
        );
        g.join(
            LinkConfig {
                loss: 1.0,
                delay_us: 0,
                ..Default::default()
            },
            2,
        );
        let registry = Registry::new();
        g.register_metrics(&registry, "mcast");
        g.send(0, &[0u8; 10]);
        g.poll(0, 1_000);
        g.poll(1, 1_000);
        assert_eq!(registry.counter_value("mcast.tx_bytes"), Some(10));
        assert_eq!(registry.counter_value("mcast.member.0.rx_bytes"), Some(10));
        assert_eq!(registry.counter_value("mcast.member.1.rx_bytes"), Some(0));
        assert_eq!(
            registry.counter_value("mcast.member.1.dropped_bytes"),
            Some(10)
        );
    }

    #[test]
    fn leave_shrinks_group() {
        let mut g = MulticastGroup::new();
        g.join(LinkConfig::default(), 1);
        g.join(LinkConfig::default(), 2);
        g.leave(0);
        assert_eq!(g.len(), 1);
        g.send(0, b"y");
        assert_eq!(g.poll(0, 1_000_000).len(), 1);
        assert!(
            g.poll(5, 1_000_000).is_empty(),
            "out-of-range member polls empty"
        );
    }
}
