//! The upstream tier-subscription signal.
//!
//! A relay tells its upstream sender (the AH or a parent relay) which tier
//! its subtree needs via an RTCP APP packet (PT 204, name `ADTR`). APP is
//! deliberately chosen over a new feedback format: the existing RTP stack
//! parses unrecognized packet types into
//! [`RtcpPacket::Unknown`] and re-serializes them verbatim (its
//! [`App`] reads and writes the APP framing), so the signal rides every
//! existing RTCP path — compound datagrams, relay upstream coalescing, TCP
//! framing — with no packet type of its own.

use adshare_rate::QualityTier;
use adshare_rtp::rtcp::{App, RtcpPacket};

use crate::tier::tier_from_gauge;

/// RTCP packet type: application-defined (RFC 3550 §6.7).
pub const PT_APP: u8 = adshare_rtp::rtcp::PT_APP;
/// Four-character name identifying the adshare tier request.
pub const APP_NAME: [u8; 4] = *b"ADTR";
/// Wire size: common header (4) + SSRC (4) + name (4) + data (4).
pub const WIRE_LEN: usize = 16;

/// "Send me this tier": the least-lossy tier any leg of the requesting
/// subtree currently needs. [`QualityTier::Lossless`] cancels a previous
/// downgrade subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRequest {
    /// SSRC of the requesting relay leg.
    pub ssrc: u32,
    /// Requested tier.
    pub tier: QualityTier,
}

impl TierRequest {
    /// Serialize to the 16-byte APP packet (subtype 0).
    pub fn encode(&self) -> Vec<u8> {
        self.app(&[self.tier.as_gauge() as u8, 0, 0, 0]).encode()
    }

    fn app<'a>(&self, data: &'a [u8]) -> App<'a> {
        App {
            subtype: 0,
            ssrc: self.ssrc,
            name: APP_NAME,
            data,
        }
    }

    /// Wrap for transmission on an existing RTCP path.
    pub fn to_rtcp(&self) -> RtcpPacket {
        RtcpPacket::Unknown {
            pt: PT_APP,
            raw: self.encode(),
        }
    }

    /// Parse from raw APP packet bytes (including the common header).
    /// `None` for anything that is not a well-formed `ADTR` request.
    pub fn decode(raw: &[u8]) -> Option<TierRequest> {
        let app = App::parse(raw).filter(|a| a.name == APP_NAME)?;
        Some(TierRequest {
            ssrc: app.ssrc,
            tier: tier_from_gauge(*app.data.first()?)?,
        })
    }

    /// Extract a request from a parsed RTCP packet, if it is one.
    pub fn from_rtcp(pkt: &RtcpPacket) -> Option<TierRequest> {
        match pkt {
            RtcpPacket::Unknown { pt: PT_APP, raw } => Self::decode(raw),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_rtp::rtcp::{decode_compound, encode_compound};

    #[test]
    fn round_trip_through_rtcp_stack() {
        for tier in [
            QualityTier::Lossless,
            QualityTier::Balanced,
            QualityTier::Economy,
        ] {
            let req = TierRequest {
                ssrc: 0xDEAD_BEEF,
                tier,
            };
            let wire = encode_compound(&[req.to_rtcp()]);
            let back = decode_compound(&wire).expect("stack parses APP");
            assert_eq!(back.len(), 1);
            assert_eq!(TierRequest::from_rtcp(&back[0]), Some(req));
        }
    }

    #[test]
    fn survives_compound_with_other_feedback() {
        use adshare_rtp::rtcp::{PictureLossIndication, RtcpPacket};
        let req = TierRequest {
            ssrc: 7,
            tier: QualityTier::Balanced,
        };
        let pli = RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        });
        let wire = encode_compound(&[pli.clone(), req.to_rtcp()]);
        let back = decode_compound(&wire).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(TierRequest::from_rtcp(&back[0]), None);
        assert_eq!(TierRequest::from_rtcp(&back[1]), Some(req));
    }

    #[test]
    fn rejects_foreign_app_packets() {
        let mut raw = TierRequest {
            ssrc: 1,
            tier: QualityTier::Economy,
        }
        .encode();
        raw[8..12].copy_from_slice(b"XXXX");
        assert_eq!(TierRequest::decode(&raw), None);
        // Bad tier gauge.
        let mut raw2 = TierRequest {
            ssrc: 1,
            tier: QualityTier::Economy,
        }
        .encode();
        raw2[12] = 9;
        assert_eq!(TierRequest::decode(&raw2), None);
        // Truncated.
        assert_eq!(TierRequest::decode(&raw2[..12]), None);
        // The same bytes as the hand-built packet it replaced.
        let req = TierRequest {
            ssrc: 0x0102_0304,
            tier: QualityTier::Balanced,
        };
        let gauge = QualityTier::Balanced.as_gauge() as u8;
        let mut wire = vec![0x80, PT_APP, 0, 3, 1, 2, 3, 4];
        wire.extend_from_slice(b"ADTR");
        wire.extend_from_slice(&[gauge, 0, 0, 0]);
        assert_eq!(req.encode(), wire);
    }
}
