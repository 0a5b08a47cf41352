//! Persistent prepared-community files (`.csjp`) — a saved "index".
//!
//! A prepared community carries both MinMax encodings for a fixed
//! `(eps, parts)` configuration. Persisting them means the CLI (and any
//! long-running service) pays the encode-and-sort cost once per
//! community, not once per join — the on-disk analogue of the engine's
//! in-memory encoding cache.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    "CSJP"          4 bytes
//! version  u16             currently 1
//! eps      u32
//! parts    u32             effective part count P
//! embedded community       (the CSJB format of `binary.rs`)
//! encd_ids      n * u64    Encd_B, ascending
//! part_sums     n * P * u64
//! b_user_idx    n * u32
//! encd_mins     n * u64    Encd_A, ascending
//! encd_maxs     n * u64
//! range_lo      n * P * u64
//! range_hi      n * P * u64
//! a_user_idx    n * u32
//! ```
//!
//! All structural invariants are re-validated on load (via
//! `EncodedB::from_raw` / `EncodedA::from_raw` /
//! `PreparedCommunity::from_parts`), so a corrupted or hand-edited file
//! fails cleanly instead of corrupting a join.

use std::io::{BufReader, BufWriter, Read, Write};

use bytes::BufMut;
use csj_core::{CsjOptions, EncodedA, EncodedB, EncodingParams, PreparedCommunity};

use super::{binary, IoError};

const MAGIC: &[u8; 4] = b"CSJP";
const VERSION: u16 = 1;

/// Write a prepared community (community + both encodings).
pub fn write_prepared<W: Write>(prepared: &PreparedCommunity, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let parts = prepared.encoded_b().parts();
    let mut header = Vec::with_capacity(16);
    header.put_slice(MAGIC);
    header.put_u16_le(VERSION);
    header.put_u32_le(prepared.eps());
    header.put_u32_le(parts as u32);
    w.write_all(&header)?;

    binary::write_binary(prepared.community(), &mut w)?;

    let eb = prepared.encoded_b();
    write_u64s(&mut w, &eb.encd_ids)?;
    write_u64s(&mut w, &eb.part_sums)?;
    write_u32s(&mut w, &eb.user_idx)?;

    let ea = prepared.encoded_a();
    write_u64s(&mut w, &ea.encd_mins)?;
    write_u64s(&mut w, &ea.encd_maxs)?;
    write_u64s(&mut w, &ea.range_lo)?;
    write_u64s(&mut w, &ea.range_hi)?;
    write_u32s(&mut w, &ea.user_idx)?;
    w.flush()?;
    Ok(())
}

/// Read a prepared community, re-validating every invariant.
pub fn read_prepared<R: Read>(reader: R) -> Result<PreparedCommunity, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Format("bad magic (not a CSJP file)".into()));
    }
    let mut two = [0u8; 2];
    r.read_exact(&mut two)?;
    let version = u16::from_le_bytes(two);
    if version != VERSION {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    let mut four = [0u8; 4];
    r.read_exact(&mut four)?;
    let eps = u32::from_le_bytes(four);
    r.read_exact(&mut four)?;
    let parts = u32::from_le_bytes(four) as usize;
    if parts == 0 || parts > 4096 {
        return Err(IoError::Format(format!("implausible part count {parts}")));
    }

    let community = binary::read_binary_embedded(&mut r)?;
    let n = community.len();
    let np = n
        .checked_mul(parts)
        .ok_or_else(|| IoError::Format("n * parts overflows".into()))?;

    let encd_ids = read_u64s(&mut r, n)?;
    let part_sums = read_u64s(&mut r, np)?;
    let b_user_idx = read_u32s(&mut r, n)?;
    let encd_mins = read_u64s(&mut r, n)?;
    let encd_maxs = read_u64s(&mut r, n)?;
    let range_lo = read_u64s(&mut r, np)?;
    let range_hi = read_u64s(&mut r, np)?;
    let a_user_idx = read_u32s(&mut r, n)?;

    let mut trailing = [0u8; 1];
    if r.read(&mut trailing)? != 0 {
        return Err(IoError::Format("trailing bytes after prepared data".into()));
    }

    let as_b = EncodedB::from_raw(parts, encd_ids, part_sums, b_user_idx)
        .map_err(|e| IoError::Format(e.to_string()))?;
    let as_a = EncodedA::from_raw(parts, encd_mins, encd_maxs, range_lo, range_hi, a_user_idx)
        .map_err(|e| IoError::Format(e.to_string()))?;
    PreparedCommunity::from_parts(community, eps, EncodingParams { parts }, as_b, as_a)
        .map_err(|e| IoError::Format(e.to_string()))
}

/// Convenience: prepare a community file's contents under `opts`.
pub fn prepare_with(community: csj_core::Community, opts: &CsjOptions) -> PreparedCommunity {
    PreparedCommunity::new(community, opts)
}

fn write_u64s<W: Write>(w: &mut W, values: &[u64]) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(values.len() * 8);
    for &v in values {
        buf.put_u64_le(v);
    }
    w.write_all(&buf)?;
    Ok(())
}

fn write_u32s<W: Write>(w: &mut W, values: &[u32]) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(values.len() * 4);
    for &v in values {
        buf.put_u32_le(v);
    }
    w.write_all(&buf)?;
    Ok(())
}

fn read_u64s<R: Read>(r: &mut R, n: usize) -> Result<Vec<u64>, IoError> {
    let bytes = super::binary::read_exact_chunked(
        r,
        n.checked_mul(8)
            .ok_or_else(|| IoError::Format("array size overflows".into()))?,
    )?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect())
}

fn read_u32s<R: Read>(r: &mut R, n: usize) -> Result<Vec<u32>, IoError> {
    let bytes = super::binary::read_exact_chunked(
        r,
        n.checked_mul(4)
            .ok_or_else(|| IoError::Format("array size overflows".into()))?,
    )?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csj_core::{run_prepared, Community, CsjMethod};

    fn sample_prepared() -> PreparedCommunity {
        let mut c = Community::new("Indexed", 4);
        for i in 0..40u64 {
            c.push(i, &[(i % 7) as u32, (i % 5) as u32, 2, (i % 3) as u32])
                .unwrap();
        }
        PreparedCommunity::new(c, &CsjOptions::new(1).with_parts(2))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample_prepared();
        let mut buf = Vec::new();
        write_prepared(&p, &mut buf).unwrap();
        let back = read_prepared(&buf[..]).unwrap();
        assert_eq!(back.community(), p.community());
        assert_eq!(back.eps(), p.eps());
        assert_eq!(back.encoded_b().encd_ids, p.encoded_b().encd_ids);
        assert_eq!(back.encoded_a().encd_maxs, p.encoded_a().encd_maxs);

        // And it actually joins identically.
        let opts = CsjOptions::new(1).with_parts(2);
        let from_disk = run_prepared(CsjMethod::ExMinMax, &back, &p, &opts).unwrap();
        let in_memory = run_prepared(CsjMethod::ExMinMax, &p, &p, &opts).unwrap();
        assert_eq!(from_disk.pairs, in_memory.pairs);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(read_prepared(&b"XXXX"[..]).is_err());
        let p = sample_prepared();
        let mut buf = Vec::new();
        write_prepared(&p, &mut buf).unwrap();
        for cut in [1usize, 7, 64] {
            assert!(read_prepared(&buf[..buf.len() - cut]).is_err());
        }
        buf.push(0);
        assert!(read_prepared(&buf[..]).is_err(), "trailing bytes must fail");
    }

    #[test]
    fn rejects_tampered_sort_order() {
        let p = sample_prepared();
        let mut buf = Vec::new();
        write_prepared(&p, &mut buf).unwrap();
        // The encd_ids array begins right after the embedded community;
        // find it by locating the first sorted u64 run — simpler: corrupt
        // a byte near the end (inside Encd_A's sorted minima region) and
        // expect either a format error or a validation error, never a
        // silent success with broken invariants.
        let idx = buf.len() / 2;
        buf[idx] ^= 0xFF;
        if let Ok(back) = read_prepared(&buf[..]) {
            // If the flipped byte landed in a non-invariant region (e.g.
            // a part sum), the structural validation can still pass; the
            // buffers must at least be well-formed.
            assert_eq!(back.community().len(), p.community().len());
        }
    }
}
