//! Small-size-optimized gate fields.
//!
//! Nearly every gate has a short instance name and at most three pins, so
//! storing both inline keeps a [`crate::Gate`] free of heap allocations:
//! a netlist costs one `Vec<Gate>` instead of that plus two allocations
//! per gate. Longer names, the four-input cells (which the design
//! generators never emit) and the wider pin lists only a malformed
//! netlist has fall back to the heap.

use crate::graph::GateId;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Longest name, in bytes, a [`GateName`] stores inline. With the length
/// byte and the variant tag this fills 16 bytes, the size of the boxed
/// form; every name the design generators emit fits.
pub const INLINE_NAME_BYTES: usize = 14;

/// Most pins a [`Pins`] list stores inline. With the length byte and the
/// variant tag this fills 16 bytes, the size of the boxed form, and keeps
/// a [`crate::Gate`] at 48 bytes; of the valid gates only the
/// four-input cells box.
pub const INLINE_PINS: usize = 3;

/// A gate instance name: inline up to [`INLINE_NAME_BYTES`] bytes, boxed
/// beyond. Dereferences to `str`.
#[derive(Clone)]
pub struct GateName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    /// The first `len` bytes of `bytes` hold the UTF-8 name.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME_BYTES],
    },
    /// Boxed twice so this variant is one thin pointer and the whole
    /// name stays 16 bytes (`Box<str>` alone would make it 24).
    Heap(Box<Box<str>>),
}

impl GateName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("inline names are copied from a str"),
            NameRepr::Heap(s) => s,
        }
    }

    /// Whether the name is stored inline.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, NameRepr::Inline { .. })
    }
}

impl From<&str> for GateName {
    fn from(s: &str) -> GateName {
        if s.len() <= INLINE_NAME_BYTES {
            let mut bytes = [0; INLINE_NAME_BYTES];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            GateName(NameRepr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            GateName(NameRepr::Heap(Box::new(s.into())))
        }
    }
}

impl From<String> for GateName {
    fn from(s: String) -> GateName {
        if s.len() <= INLINE_NAME_BYTES {
            s.as_str().into()
        } else {
            GateName(NameRepr::Heap(Box::new(s.into_boxed_str())))
        }
    }
}

impl Deref for GateName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for GateName {
    fn as_ref(&self) -> &str {
        self
    }
}

impl Borrow<str> for GateName {
    fn borrow(&self) -> &str {
        self
    }
}

impl PartialEq for GateName {
    fn eq(&self, other: &GateName) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for GateName {}

impl PartialEq<&str> for GateName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for GateName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for GateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for GateName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// A gate's ordered input pins: inline up to [`INLINE_PINS`], boxed
/// beyond. Dereferences to `[GateId]`.
#[derive(Clone)]
pub struct Pins(PinsRepr);

#[derive(Clone)]
enum PinsRepr {
    /// The first `len` ids of `ids`, padded with `GateId(0)`.
    Inline { len: u8, ids: [GateId; INLINE_PINS] },
    /// Boxed twice so this variant is one thin pointer (as
    /// [`GateName`]'s).
    Heap(Box<Box<[GateId]>>),
}

impl Pins {
    /// Whether the pins are stored inline.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, PinsRepr::Inline { .. })
    }
}

impl From<&[GateId]> for Pins {
    fn from(s: &[GateId]) -> Pins {
        if s.len() <= INLINE_PINS {
            let mut ids = [GateId(0); INLINE_PINS];
            ids[..s.len()].copy_from_slice(s);
            Pins(PinsRepr::Inline {
                len: s.len() as u8,
                ids,
            })
        } else {
            Pins(PinsRepr::Heap(Box::new(s.into())))
        }
    }
}

impl From<Vec<GateId>> for Pins {
    fn from(v: Vec<GateId>) -> Pins {
        if v.len() <= INLINE_PINS {
            v.as_slice().into()
        } else {
            Pins(PinsRepr::Heap(Box::new(v.into_boxed_slice())))
        }
    }
}

impl From<Box<[GateId]>> for Pins {
    fn from(b: Box<[GateId]>) -> Pins {
        if b.len() <= INLINE_PINS {
            (*b).into()
        } else {
            Pins(PinsRepr::Heap(Box::new(b)))
        }
    }
}

impl<const N: usize> From<[GateId; N]> for Pins {
    fn from(a: [GateId; N]) -> Pins {
        a.as_slice().into()
    }
}

impl Deref for Pins {
    type Target = [GateId];

    fn deref(&self) -> &[GateId] {
        match &self.0 {
            PinsRepr::Inline { len, ids } => &ids[..*len as usize],
            PinsRepr::Heap(b) => b,
        }
    }
}

impl DerefMut for Pins {
    fn deref_mut(&mut self) -> &mut [GateId] {
        match &mut self.0 {
            PinsRepr::Inline { len, ids } => &mut ids[..*len as usize],
            PinsRepr::Heap(b) => b,
        }
    }
}

impl<'a> IntoIterator for &'a Pins {
    type Item = &'a GateId;
    type IntoIter = std::slice::Iter<'a, GateId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Pins {
    type Item = &'a mut GateId;
    type IntoIter = std::slice::IterMut<'a, GateId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl PartialEq for Pins {
    fn eq(&self, other: &Pins) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Pins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}
