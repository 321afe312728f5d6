//! The window mirror (DESIGN §5.2): what the remoting stream says the
//! shared windows look like — window map, z-order, pixels, the codecs that
//! decode them and the parked-tile store (§9.1). [`Mirror::apply`] is the
//! one place a message changes any of it, and it says what it did: a viewer
//! derives its counters and layout from that, a relay its queueing class,
//! and a relay's catch-up bursts read the pixels a viewer would show.

use std::collections::HashMap;

use adshare_codec::image::check_dims;
use adshare_codec::{Codec, CodecRegistry, Rect};
use adshare_remoting::message::{RegionUpdate, RemotingMessage};
use adshare_remoting::reference::{Held, TileRef, REFERENCE_PT, REPORT_MAX_NAMES};

mod tiles;
mod window;

use tiles::TileStore;
pub use tiles::PARKED_CEILING_BYTES;
pub use window::{Drawn, PWindow};

/// Bytes of pixels all the windows of one WindowManagerInfo may need
/// together (RGBA, so four per pixel): as much as the largest single image
/// [`check_dims`] admits. A message past it is refused whole.
pub const WINDOW_BYTES_CEILING: u64 = 256 * 1024 * 1024;

/// Room for a message on top of what the largest window needs, and before
/// any window is open: codec headers and pointer icons.
const MESSAGE_SLACK_BYTES: usize = 1 << 20;

/// The longest message a receiver whose largest window has `pixels` pixels
/// can need: no codec here encodes an image into more than twice its RGBA
/// bytes (RLE's worst case is 5 bytes per 4-byte pixel, PNG's a filter
/// byte per row and a few per DEFLATE block), plus 1 MiB of slack.
/// A fragment train past it is dropped (`Reassembler::set_cap`).
pub fn message_cap(pixels: usize) -> usize {
    2 * 4 * pixels + MESSAGE_SLACK_BYTES
}

/// What [`Mirror::apply`] did with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A WindowManagerInfo: windows opened, closed, resized or restacked.
    Windows,
    /// A WindowManagerInfo refused whole, its windows together being too
    /// large ([`WINDOW_BYTES_CEILING`]): nothing changed.
    Refused,
    /// A RegionUpdate reached a window's pixels.
    Region {
        /// The window drawn into.
        window: u16,
        /// Where the whole tile lies, in absolute AH coordinates.
        rect: Rect,
        /// Which way its pixels got there.
        how: Drawn,
    },
    /// A MoveRectangle moved pixels inside its window.
    Moved,
    /// A MousePointerInfo: the mirror keeps no pointer, the caller may.
    Pointer,
    /// A RegionUpdate or MoveRectangle for a window no WMI listed.
    UnknownWindow,
    /// A RegionUpdate whose payload type or payload does not decode.
    Undecodable,
    /// A RegionUpdate whose payload or reference declares a tile larger
    /// than its window (a reference: one not wholly inside it), refused
    /// before anything was decoded or copied.
    TooLarge,
    /// A reference to a tile this mirror does not hold (or holds at
    /// another size): nothing changed, and the sender owes the pixels.
    Missed {
        /// The name the reference gave.
        name: u64,
    },
}

/// One receiver's copy of the shared windows.
#[derive(Debug)]
pub struct Mirror {
    windows: HashMap<u16, PWindow>,
    /// z-order, bottom first, from the latest WMI.
    z_order: Vec<u16>,
    registry: CodecRegistry,
    /// Pixels the windows stopped showing, by the name of their payload.
    tiles: TileStore,
    /// Whether a WMI ever arrived.
    synced: bool,
    /// WMI records refused because no image can have their size.
    windows_refused: u64,
    /// RegionUpdates refused because their tile cannot fit their window.
    tiles_refused: u64,
    /// `MoveRectangle` and WindowManagerInfo messages applied (wrapping):
    /// each may change what any rectangle shows.
    moves: u16,
    /// Whether references ([`REFERENCE_PT`]) are resolved here: a viewer's
    /// mirror, whose names its sender learns from its reports. A relay's
    /// reports nothing, so a reference there is undecodable.
    references: bool,
}

impl Mirror {
    /// An empty mirror whose parked-tile names are keyed with `seed`, and
    /// which treats a reference as undecodable.
    pub fn new(seed: u64) -> Self {
        Mirror {
            windows: HashMap::new(),
            z_order: Vec::new(),
            registry: CodecRegistry::default(),
            tiles: TileStore::new(seed),
            synced: false,
            windows_refused: 0,
            tiles_refused: 0,
            moves: 0,
            references: false,
        }
    }

    /// [`Mirror::new`] for a viewer: references to the tiles it holds are
    /// resolved ([`Mirror::names_into`] says which).
    pub fn resolving(seed: u64) -> Self {
        Mirror {
            references: true,
            ..Mirror::new(seed)
        }
    }

    /// Apply one remoting message.
    pub fn apply(&mut self, msg: &RemotingMessage) -> Applied {
        if matches!(
            msg,
            RemotingMessage::WindowManagerInfo(_) | RemotingMessage::MoveRectangle(_)
        ) {
            self.moves = self.moves.wrapping_add(1);
        }
        match msg {
            RemotingMessage::WindowManagerInfo(wmi) => {
                // Windows a receiver cannot hold all at once are not
                // created, and none is closed in their stead: the message
                // is refused whole and the windows stay as they were.
                let bytes: u64 = wmi
                    .windows
                    .iter()
                    .filter(|w| check_dims(w.width, w.height).is_ok())
                    .map(|w| u64::from(w.width) * u64::from(w.height) * 4)
                    .sum();
                if bytes > WINDOW_BYTES_CEILING {
                    self.windows_refused += wmi.windows.len() as u64;
                    return Applied::Refused;
                }
                self.synced = true;
                let ids: Vec<u16> = wmi.windows.iter().map(|w| w.window_id.0).collect();
                // "MUST close this window after receiving a
                // WindowManagerInfo message which does not contain this
                // WindowID."
                self.windows.retain(|id, _| ids.contains(id));
                self.z_order = ids;
                for w in &wmi.windows {
                    // A size no window image can have is refused: the
                    // window keeps what it had, or is not opened.
                    if check_dims(w.width, w.height).is_err() {
                        self.windows_refused += 1;
                        continue;
                    }
                    let rect = Rect::new(w.left, w.top, w.width, w.height);
                    match self.windows.get_mut(&w.window_id.0) {
                        Some(existing) => existing.set_geometry(rect, w.group_id),
                        None => {
                            // "The participant MUST create a window for each
                            // new WindowID."
                            self.windows
                                .insert(w.window_id.0, PWindow::new(rect, w.group_id));
                        }
                    }
                }
                // A refused record opened nothing to stack.
                let windows = &self.windows;
                self.z_order.retain(|id| windows.contains_key(id));
                Applied::Windows
            }
            RemotingMessage::RegionUpdate(ru) if ru.payload_type == REFERENCE_PT => {
                match TileRef::decode(&ru.payload).filter(|_| self.references) {
                    Some(r) => self.resolve(ru, r),
                    None if self.windows.contains_key(&ru.window_id.0) => Applied::Undecodable,
                    None => Applied::UnknownWindow,
                }
            }
            RemotingMessage::RegionUpdate(ru) => {
                let Some(win) = self.windows.get_mut(&ru.window_id.0) else {
                    return Applied::UnknownWindow;
                };
                let Some(codec) = self.registry.get(ru.payload_type) else {
                    return Applied::Undecodable;
                };
                // The size the payload claims, checked before a byte of it
                // is decoded: no tile larger than its window is drawn.
                let Ok((width, height)) = codec.dims(&ru.payload) else {
                    return Applied::Undecodable;
                };
                if !win.fits(width, height) {
                    self.tiles_refused += 1;
                    return Applied::TooLarge;
                }
                let key = self.tiles.key(ru.payload_type, &ru.payload);
                let at = (ru.left, ru.top);
                let drawn = win.region_update(&mut self.tiles, key, at, false, || {
                    codec.decode(&ru.payload)
                });
                match drawn {
                    Ok((how, (width, height))) => Applied::Region {
                        window: ru.window_id.0,
                        rect: Rect::new(ru.left, ru.top, width, height),
                        how,
                    },
                    Err(_) => Applied::Undecodable,
                }
            }
            RemotingMessage::MoveRectangle(mv) => {
                let Some(win) = self.windows.get_mut(&mv.window_id.0) else {
                    return Applied::UnknownWindow;
                };
                win.move_rectangle(
                    (mv.src_left, mv.src_top),
                    (mv.dst_left, mv.dst_top),
                    mv.width,
                    mv.height,
                );
                Applied::Moved
            }
            RemotingMessage::MousePointerInfo(_) => Applied::Pointer,
        }
    }

    /// Draw the tile reference `r` carried by `ru`: from the window's own
    /// record or the parked store as any update would be, else copied from
    /// a window that shows it (the target first, then bottom to top).
    fn resolve(&mut self, ru: &RegionUpdate, r: TileRef) -> Applied {
        let Some(win) = self.windows.get(&ru.window_id.0) else {
            return Applied::UnknownWindow;
        };
        let size = (u32::from(r.width), u32::from(r.height));
        let Some(rect) = win.inside_at((ru.left, ru.top), size.0, size.1) else {
            self.tiles_refused += 1;
            return Applied::TooLarge;
        };
        let key = self.tiles.named(r.payload_type, r.len, r.name);
        let copy = if win.finds(&self.tiles, key, rect) {
            None
        } else {
            let shown = |w: &PWindow| w.shown_copy(key, size);
            let copy = shown(win).or_else(|| self.stacked().find_map(|(_, w)| shown(w)));
            match copy {
                Some(pixels) => Some(pixels),
                None => return Applied::Missed { name: r.name },
            }
        };
        let win = self
            .windows
            .get_mut(&ru.window_id.0)
            .expect("looked up above");
        let at = (ru.left, ru.top);
        let fetch = || copy.ok_or(adshare_codec::Error::Truncated("tile reference"));
        match win.region_update(&mut self.tiles, key, at, true, fetch) {
            Ok((how, (width, height))) => Applied::Region {
                window: ru.window_id.0,
                rect: Rect::new(ru.left, ru.top, width, height),
                how,
            },
            Err(_) => Applied::Missed { name: r.name },
        }
    }

    /// The seed this mirror names payloads with.
    pub fn seed(&self) -> u64 {
        self.tiles.seed()
    }

    /// `MoveRectangle` and WindowManagerInfo messages applied so far,
    /// wrapping: a sender that sent more since trusts no shown name.
    pub fn moves(&self) -> u16 {
        self.moves
    }

    /// Every name a reference to this mirror resolves right now — the
    /// parked tiles anywhere, and what the windows are known to show where
    /// they show it — with the length of the payload it names, sorted, at
    /// most [`REPORT_MAX_NAMES`], into `out`.
    pub fn names_into(&self, out: &mut Vec<(Held, u32)>) {
        out.clear();
        out.extend(self.tiles.held());
        for w in self.windows.values() {
            out.extend(w.held());
        }
        // Sorted, so that no map order reaches the wire.
        out.sort_unstable();
        out.dedup_by_key(|(held, _)| *held);
        out.truncate(REPORT_MAX_NAMES);
    }

    /// Names that became held so far: [`Mirror::names_into`] can have
    /// grown only when this moved.
    pub fn gained(&self) -> u64 {
        self.tiles.gained()
    }

    /// Note that `reported` went to the sender: from now on a window that
    /// stops showing one of those names parks it, as it would a tile known
    /// to come back, so the sender's next reference to it still resolves.
    pub fn pin(&mut self, reported: impl Iterator<Item = Held>) {
        self.tiles.pin(reported);
    }

    /// [`message_cap`] of the largest window open here.
    pub fn message_cap(&self) -> usize {
        let pixels = |w: &PWindow| w.ah_rect().width as usize * w.ah_rect().height as usize;
        message_cap(self.windows.values().map(pixels).max().unwrap_or(0))
    }

    /// Whether initial state (a WindowManagerInfo) has arrived.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// WindowManagerInfo records refused so far: each record stating a
    /// size no image can have (zero, or past [`check_dims`]'s bounds), and
    /// every record of a message whose windows together need more than
    /// [`WINDOW_BYTES_CEILING`].
    pub fn windows_refused(&self) -> u64 {
        self.windows_refused
    }

    /// RegionUpdates refused because the tile they declare (a payload's
    /// header, or a reference) cannot fit its window.
    pub fn tiles_refused(&self) -> u64 {
        self.tiles_refused
    }

    /// One window, if the latest WMI lists it.
    pub fn window(&self, id: u16) -> Option<&PWindow> {
        self.windows.get(&id)
    }

    /// Window ids in z-order (bottom first).
    pub fn z_order(&self) -> &[u16] {
        &self.z_order
    }

    /// Every window with its id, bottom first.
    pub fn stacked(&self) -> impl Iterator<Item = (u16, &PWindow)> {
        let known = |&id: &u16| Some((id, self.windows.get(&id)?));
        self.z_order.iter().filter_map(known)
    }

    /// Raise a window to the top of this mirror's stacking order until the
    /// next WMI re-asserts the AH's; whether the window exists.
    pub fn raise(&mut self, id: u16) -> bool {
        let Some(pos) = self.z_order.iter().position(|&w| w == id) else {
            return false;
        };
        let moved = self.z_order.remove(pos);
        self.z_order.push(moved);
        true
    }

    /// The codecs this mirror decodes with, by RTP payload type.
    pub fn codecs(&self) -> &CodecRegistry {
        &self.registry
    }

    /// Bytes of parked pixels right now (at most [`PARKED_CEILING_BYTES`])
    /// and parked tiles evicted so far to stay under that.
    pub fn parked(&self) -> (usize, u64) {
        (self.tiles.bytes(), self.tiles.evictions())
    }
}
