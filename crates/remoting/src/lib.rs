//! The application/desktop sharing payload formats of
//! `draft-boyaci-avt-app-sharing-00`.
//!
//! Two RTP sub-protocols (§4.5):
//!
//! * **Remoting** (AH → participant): [`WindowManagerInfo`],
//!   [`RegionUpdate`], [`MoveRectangle`], [`MousePointerInfo`] — plus the
//!   RTCP feedback messages PLI and Generic NACK which live in
//!   `adshare-rtp`.
//! * **HIP** (participant → AH): [`hip::HipMessage`] — mouse
//!   pressed/released/moved/wheel, key pressed/released/typed.
//!
//! Every message starts with the 4-byte common remoting/HIP header
//! (Figure 7), then a message-type-specific header, then a payload
//! (Figure 6). [`fragment`] implements the marker/FirstPacket fragmentation
//! of Table 2; [`packetizer`] binds messages to actual RTP packets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fragment;
pub mod header;
pub mod hip;
pub mod keycodes;
pub mod message;
pub mod packetizer;
pub mod reference;
pub mod registry;

pub use error::Error;
pub use header::{CommonHeader, WindowId};
pub use message::{
    MousePointerInfo, MoveRectangle, RegionUpdate, RemotingMessage, WindowManagerInfo, WindowRecord,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
