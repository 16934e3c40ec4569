use crate::{Bitwidth, QuantError};
use serde::{Deserialize, Serialize};

/// Bit-packed storage of quantization codes at 0/2/4/8 bits per element.
///
/// The accelerator stores attention-map blocks in DRAM at their allocated
/// bitwidth; this type models that storage exactly, so the simulator's
/// traffic accounting and the algorithm's memory-footprint numbers both
/// derive from real packed byte counts.
///
/// Codes are packed little-endian within each byte: element 0 occupies the
/// least-significant bits.
///
/// # Example
///
/// ```
/// use paro_quant::{Bitwidth, PackedCodes};
/// # fn main() -> Result<(), paro_quant::QuantError> {
/// let codes = [3u32, 0, 1, 2, 3, 3];
/// let packed = PackedCodes::pack(&codes, Bitwidth::B2)?;
/// assert_eq!(packed.byte_len(), 2); // 6 elements x 2 bits = 12 bits -> 2 bytes
/// assert_eq!(packed.unpack(), codes);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCodes {
    bytes: Vec<u8>,
    len: usize,
    bits: Bitwidth,
}

impl PackedCodes {
    /// Packs a code list at the given bitwidth.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CodeOutOfRange`] if any code exceeds
    /// `2^bits − 1`.
    pub fn pack(codes: &[u32], bits: Bitwidth) -> Result<Self, QuantError> {
        let max = bits.max_code();
        for &c in codes {
            if c > max {
                return Err(QuantError::CodeOutOfRange { code: c, max });
            }
        }
        let mut bytes = Vec::with_capacity(Self::bytes_for(codes.len(), bits));
        pack_append(codes, bits, &mut bytes);
        Ok(PackedCodes {
            bytes,
            len: codes.len(),
            bits,
        })
    }

    /// A packed store from a payload the caller packed itself (`bytes`
    /// must hold exactly `bytes_for(len, bits)` bytes).
    pub(crate) fn from_packed(bytes: Vec<u8>, len: usize, bits: Bitwidth) -> Self {
        debug_assert_eq!(bytes.len(), Self::bytes_for(len, bits));
        PackedCodes { bytes, len, bits }
    }

    /// Number of bytes needed to store `len` elements at `bits`.
    pub fn bytes_for(len: usize, bits: Bitwidth) -> usize {
        (len * bits.bits() as usize).div_ceil(8)
    }

    /// Unpacks back into a code list.
    pub fn unpack(&self) -> Vec<u32> {
        if self.bits == Bitwidth::B0 {
            return vec![0; self.len];
        }
        let b = self.bits.bits() as usize;
        let mask = self.bits.max_code() as u8;
        (0..self.len)
            .map(|i| {
                let bit0 = i * b;
                ((self.bytes[bit0 / 8] >> (bit0 % 8)) & mask) as u32
            })
            .collect()
    }

    /// The single code at index `i`, or `None` if out of range.
    pub fn get(&self, i: usize) -> Option<u32> {
        if i >= self.len {
            return None;
        }
        if self.bits == Bitwidth::B0 {
            return Some(0);
        }
        let b = self.bits.bits() as usize;
        let bit0 = i * b;
        Some(((self.bytes[bit0 / 8] >> (bit0 % 8)) & self.bits.max_code() as u8) as u32)
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Storage bitwidth.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Packed payload size in bytes (the number that enters DRAM-traffic
    /// accounting).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Borrow the packed payload.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs from a packed payload.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::PackedLengthMismatch`] if the payload size is
    /// inconsistent with `len` and `bits`.
    pub fn from_bytes(bytes: Vec<u8>, len: usize, bits: Bitwidth) -> Result<Self, QuantError> {
        let expected = Self::bytes_for(len, bits);
        if bytes.len() != expected {
            return Err(QuantError::PackedLengthMismatch {
                bytes: bytes.len(),
                expected,
            });
        }
        Ok(PackedCodes { bytes, len, bits })
    }
}

/// Appends `codes` packed at `bits` to `bytes`: `bytes_for(codes.len(),
/// bits)` new bytes, element 0 in the least-significant bits. Codes must
/// already fit `bits` ([`PackedCodes::pack`] checks; the quantize kernels
/// clamp).
pub(crate) fn pack_append(codes: &[u32], bits: Bitwidth, bytes: &mut Vec<u8>) {
    let start = bytes.len();
    match bits {
        Bitwidth::B0 => {}
        Bitwidth::B8 => bytes.extend(codes.iter().map(|&c| c as u8)),
        Bitwidth::B2 | Bitwidth::B4 => {
            bytes.resize(start + PackedCodes::bytes_for(codes.len(), bits), 0);
            let out = &mut bytes[start..];
            let b = bits.bits() as usize;
            for (i, &c) in codes.iter().enumerate() {
                let bit0 = i * b;
                out[bit0 / 8] |= (c as u8) << (bit0 % 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip_all_bitwidths() {
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let max = bits.max_code();
            let codes: Vec<u32> = (0..37).map(|i| (i * 7) % (max + 1)).collect();
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            assert_eq!(packed.unpack(), codes, "bits={bits}");
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(packed.get(i), Some(c));
            }
            assert_eq!(packed.get(codes.len()), None);
        }
    }

    #[test]
    fn b0_stores_nothing() {
        let packed = PackedCodes::pack(&[0, 0, 0, 0], Bitwidth::B0).unwrap();
        assert_eq!(packed.byte_len(), 0);
        assert_eq!(packed.unpack(), vec![0; 4]);
        assert_eq!(packed.len(), 4);
    }

    #[test]
    fn byte_counts_match_bitwidth() {
        assert_eq!(PackedCodes::bytes_for(16, Bitwidth::B2), 4);
        assert_eq!(PackedCodes::bytes_for(16, Bitwidth::B4), 8);
        assert_eq!(PackedCodes::bytes_for(16, Bitwidth::B8), 16);
        assert_eq!(PackedCodes::bytes_for(16, Bitwidth::B0), 0);
        // Non-divisible element counts round up.
        assert_eq!(PackedCodes::bytes_for(5, Bitwidth::B2), 2);
    }

    #[test]
    fn out_of_range_code_rejected() {
        assert!(matches!(
            PackedCodes::pack(&[4], Bitwidth::B2),
            Err(QuantError::CodeOutOfRange { code: 4, max: 3 })
        ));
        assert!(matches!(
            PackedCodes::pack(&[1], Bitwidth::B0),
            Err(QuantError::CodeOutOfRange { .. })
        ));
    }

    #[test]
    fn from_bytes_validates_length() {
        let packed = PackedCodes::pack(&[1, 2, 3], Bitwidth::B4).unwrap();
        let bytes = packed.as_bytes().to_vec();
        let rebuilt = PackedCodes::from_bytes(bytes.clone(), 3, Bitwidth::B4).unwrap();
        assert_eq!(rebuilt, packed);
        assert!(PackedCodes::from_bytes(bytes, 5, Bitwidth::B4).is_err());
    }

    #[test]
    fn empty_codes() {
        let packed = PackedCodes::pack(&[], Bitwidth::B8).unwrap();
        assert!(packed.is_empty());
        assert_eq!(packed.byte_len(), 0);
        assert!(packed.unpack().is_empty());
    }

    #[test]
    fn compression_ratio_visible() {
        // 2-bit packing is 4x smaller than 8-bit: this is the memory saving
        // the accelerator's DRAM model banks on.
        let codes: Vec<u32> = (0..256).map(|i| i % 4).collect();
        let b2 = PackedCodes::pack(&codes, Bitwidth::B2).unwrap();
        let b8 = PackedCodes::pack(&codes, Bitwidth::B8).unwrap();
        assert_eq!(b8.byte_len(), b2.byte_len() * 4);
    }
}
