//! Compact length-prefixed binary framing for provenance expressions.
//!
//! A *frame payload* encodes one store entry `(object, tensor)` — the
//! unit the summarizer consumes via [`ProvExpr::push`]. The encoding is
//! canonical (no padding, fixed field order, little-endian), so equal
//! expressions produce equal bytes and the FNV fingerprint of the
//! payload is a content address.
//!
//! The in-tree `prox_obs::Json` shape produced by [`entry_to_json`] is
//! a debug view, never read back: `prox store stat --sample` prints it,
//! and tests use it to compare decoded entries structurally.
//!
//! Every decoder returns a typed [`ProxError::Corrupt`] on truncated or
//! malformed input — never a panic — and validates declared lengths
//! against the bytes actually present before allocating.
//!
//! A frame payload is read by one walk of its grammar, which makes every
//! check. [`decode_entry`] builds the tensor along the walk;
//! [`skim_entry`] only sums its size, without allocating, for the frames
//! a selected fold reads but does not keep. A plain payload (one
//! canonical term, no guards) the skim reads at fixed offsets instead,
//! making the walk's checks for that shape.

use prox_obs::{fnv64, Json, FNV_OFFSET};
use prox_provenance::{AggValue, AnnId, AnnStore, CmpOp, Guard, Monomial, Polynomial, Tensor};
use prox_robust::ProxError;

/// Hard cap on any single frame payload. Corrupt length fields must not
/// translate into multi-gigabyte allocations.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Primitive writer
// ---------------------------------------------------------------------------

/// Append-only byte buffer with the primitive little-endian writers the
/// framing is built from.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

/// Cursor over a byte slice. Every read is bounds-checked and failures
/// carry the caller's context string so `prox store verify` can say
/// *which* structure was truncated.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            context,
        }
    }

    // The errors are built by functions of their own, kept out of line,
    // so the checks a frame walk makes on every field stay small.
    #[cold]
    #[inline(never)]
    fn corrupt(&self, detail: impl Into<String>) -> ProxError {
        ProxError::corrupt(self.context, detail)
    }

    #[cold]
    #[inline(never)]
    fn short(&self, n: usize) -> ProxError {
        if self.pos.checked_add(n).is_none() {
            return self.corrupt("length overflow");
        }
        self.corrupt(format!(
            "truncated: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len().saturating_sub(self.pos)
        ))
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProxError> {
        let Some(slice) = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
        else {
            return Err(self.short(n));
        };
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, ProxError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, ProxError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    pub fn u64(&mut self) -> Result<u64, ProxError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn f64(&mut self) -> Result<f64, ProxError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> Result<&'a str, ProxError> {
        let n = self.len_field("string")?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|e| self.corrupt(format!("invalid utf-8: {e}")))
    }

    /// Read a count/length field and sanity-check it against the bytes
    /// still available (each counted item needs at least one byte), so a
    /// corrupt count cannot drive a huge allocation.
    pub fn len_field(&mut self, what: &str) -> Result<usize, ProxError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len().saturating_sub(self.pos);
        if n > remaining {
            return Err(self.corrupt(format!(
                "{what} count {n} exceeds {remaining} remaining bytes"
            )));
        }
        Ok(n)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub fn finish(&self) -> Result<(), ProxError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Expression framing
// ---------------------------------------------------------------------------

fn encode_poly(enc: &mut Enc, p: &Polynomial) {
    let terms = p.terms();
    enc.put_u32(terms.len() as u32);
    for (m, coeff) in terms {
        let factors = m.factors();
        enc.put_u32(factors.len() as u32);
        for a in factors {
            enc.put_u32(a.index() as u32);
        }
        enc.put_u64(*coeff);
    }
}

fn op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Gt => 0,
        CmpOp::Ge => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Eq => 4,
        CmpOp::Ne => 5,
    }
}

fn op_from_tag(tag: u8, dec: &Dec<'_>) -> Result<CmpOp, ProxError> {
    Ok(match tag {
        0 => CmpOp::Gt,
        1 => CmpOp::Ge,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Eq,
        5 => CmpOp::Ne,
        other => return Err(dec.corrupt(format!("unknown comparison op tag {other}"))),
    })
}

/// Serialize one store entry into a canonical frame payload.
pub fn encode_entry(object: AnnId, t: &Tensor) -> Vec<u8> {
    let mut out = Vec::new();
    encode_entry_into(&mut out, object, t);
    out
}

/// [`encode_entry`] into `out`, replacing what it held. A writer that
/// encodes every frame into one buffer allocates only while the buffer
/// grows to the largest frame.
pub fn encode_entry_into(out: &mut Vec<u8>, object: AnnId, t: &Tensor) {
    out.clear();
    let mut enc = Enc {
        buf: std::mem::take(out),
    };
    enc.put_u32(object.index() as u32);
    encode_poly(&mut enc, &t.prov);
    enc.put_u32(t.guards.len() as u32);
    for g in &t.guards {
        enc.put_u32(g.lhs.len() as u32);
        for (p, w) in &g.lhs {
            encode_poly(&mut enc, p);
            enc.put_f64(*w);
        }
        enc.put_u8(op_tag(g.op));
        enc.put_f64(g.rhs);
    }
    enc.put_f64(t.value.value);
    enc.put_u64(t.value.count);
    *out = enc.into_bytes();
}

fn decode_ann(dec: &mut Dec<'_>, max_ann: usize) -> Result<AnnId, ProxError> {
    let ix = dec.u32()? as usize;
    if ix >= max_ann {
        return Err(ann_out_of_range(ix, max_ann));
    }
    Ok(AnnId::from_index(ix))
}

#[cold]
#[inline(never)]
fn ann_out_of_range(ix: usize, max_ann: usize) -> ProxError {
    ProxError::corrupt(
        "store frame",
        format!("annotation id {ix} out of range (store has {max_ann})"),
    )
}

/// One monomial's factor ids as they sit in a frame payload: `4 × n`
/// little-endian bytes, each id already checked against the annotation
/// table.
#[derive(Clone, Copy)]
struct Factors<'a>(&'a [u8]);

impl<'a> Factors<'a> {
    fn len(self) -> usize {
        self.0.len() / 4
    }

    fn ids(self) -> impl Iterator<Item = u32> + 'a {
        self.0
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }
}

/// What a walk of the frame grammar ([`walk_entry`]) hands over, in
/// payload order. The walk checks every field before handing it over,
/// so a visitor only builds the tensor ([`decode_entry`]) or counts its
/// size ([`skim_entry`]).
trait FrameVisitor<'a> {
    /// One term of the polynomial being read.
    fn term(&mut self, factors: Factors<'a>, coeff: u64);
    /// The terms since the last polynomial ended are the tensor's
    /// provenance.
    fn prov(&mut self);
    /// The terms since the last polynomial ended are one guard lhs
    /// polynomial, with weight `w`.
    fn lhs(&mut self, w: f64);
    /// The lhs polynomials since the last guard ended make one guard.
    fn guard(&mut self, op: CmpOp, rhs: f64);
}

/// The frame grammar, stated once for [`decode_entry`] and
/// [`skim_entry`]: every count field is checked against the bytes left,
/// every annotation id against `max_ann`, every comparison-op tag, and
/// that no bytes trail the value.
fn walk_entry<'a>(
    payload: &'a [u8],
    max_ann: usize,
    v: &mut impl FrameVisitor<'a>,
) -> Result<(AnnId, AggValue), ProxError> {
    let mut dec = Dec::new(payload, "store frame");
    let object = decode_ann(&mut dec, max_ann)?;
    walk_poly(&mut dec, max_ann, v)?;
    v.prov();
    let n_guards = dec.len_field("guard")?;
    for _ in 0..n_guards {
        let n_lhs = dec.len_field("guard lhs term")?;
        for _ in 0..n_lhs {
            walk_poly(&mut dec, max_ann, v)?;
            v.lhs(dec.f64()?);
        }
        let op = op_from_tag(dec.u8()?, &dec)?;
        v.guard(op, dec.f64()?);
    }
    let value = dec.f64()?;
    let count = dec.u64()?;
    dec.finish()?;
    Ok((object, AggValue { value, count }))
}

fn walk_poly<'a>(
    dec: &mut Dec<'a>,
    max_ann: usize,
    v: &mut impl FrameVisitor<'a>,
) -> Result<(), ProxError> {
    let n_terms = dec.len_field("polynomial term")?;
    for _ in 0..n_terms {
        let n_factors = dec.len_field("monomial factor")?;
        let start = dec.pos;
        for _ in 0..n_factors {
            decode_ann(dec, max_ann)?;
        }
        let factors = Factors(&dec.buf[start..dec.pos]);
        v.term(factors, dec.u64()?);
    }
    Ok(())
}

/// Builds the tensor a walk describes.
#[derive(Default)]
struct Build {
    terms: Vec<(Monomial, u64)>,
    prov: Polynomial,
    lhs: Vec<(Polynomial, f64)>,
    guards: Vec<Guard>,
}

impl FrameVisitor<'_> for Build {
    fn term(&mut self, factors: Factors<'_>, coeff: u64) {
        let factors = factors.ids().map(|ix| AnnId::from_index(ix as usize));
        self.terms
            .push((Monomial::from_factors(factors.collect()), coeff));
    }

    fn prov(&mut self) {
        self.prov = Polynomial::from_terms(std::mem::take(&mut self.terms));
    }

    fn lhs(&mut self, w: f64) {
        let p = Polynomial::from_terms(std::mem::take(&mut self.terms));
        self.lhs.push((p, w));
    }

    fn guard(&mut self, op: CmpOp, rhs: f64) {
        let lhs = std::mem::take(&mut self.lhs);
        self.guards.push(Guard { lhs, op, rhs });
    }
}

/// Decode a frame payload back into `(object, tensor)`. `max_ann` is the
/// annotation-store size; any id at or past it is a corruption, not an
/// index-out-of-bounds panic later.
pub fn decode_entry(payload: &[u8], max_ann: usize) -> Result<(AnnId, Tensor), ProxError> {
    let mut build = Build::default();
    let (object, value) = walk_entry(payload, max_ann, &mut build)?;
    Ok((object, Tensor::guarded(build.prov, build.guards, value)))
}

/// Sums a walk's provenance size without allocating, and notes whether
/// every polynomial is in the normal form [`encode_entry`] writes.
struct Skim<'a> {
    size: usize,
    /// The previous term of the polynomial being read.
    prev: Option<Factors<'a>>,
    canonical: bool,
}

impl<'a> FrameVisitor<'a> for Skim<'a> {
    fn term(&mut self, factors: Factors<'a>, coeff: u64) {
        // Sorted factors, strictly increasing monomials and positive
        // coefficients: `Polynomial::from_terms` would drop or merge
        // nothing, so the size is the sum of the degrees.
        let sorted = factors
            .ids()
            .zip(factors.ids().skip(1))
            .all(|(a, b)| a <= b);
        let increasing = self.prev.is_none_or(|prev| prev.ids().lt(factors.ids()));
        self.canonical &= coeff > 0 && sorted && increasing;
        self.size += factors.len();
        self.prev = Some(factors);
    }

    fn prov(&mut self) {
        self.prev = None;
    }

    fn lhs(&mut self, _w: f64) {
        self.prev = None;
    }

    fn guard(&mut self, _op: CmpOp, _rhs: f64) {}
}

/// [`decode_entry`]'s object and tensor size, from the same checks, but
/// without building the tensor: no allocation unless a polynomial is out
/// of normal form, in which case the payload is decoded to count what
/// normalizing leaves. A payload of the shape nearly every frame has is
/// checked by [`skim_plain`] instead of the grammar walk.
pub fn skim_entry(payload: &[u8], max_ann: usize) -> Result<(AnnId, usize), ProxError> {
    match skim_plain(payload, max_ann) {
        Some(skim) => Ok(skim),
        None => skim_walk(payload, max_ann),
    }
}

/// [`skim_entry`] by the grammar walk, for any payload.
fn skim_walk(payload: &[u8], max_ann: usize) -> Result<(AnnId, usize), ProxError> {
    let mut skim = Skim {
        size: 0,
        prev: None,
        canonical: true,
    };
    let (object, _) = walk_entry(payload, max_ann, &mut skim)?;
    if skim.canonical {
        return Ok((object, skim.size));
    }
    let (object, tensor) = decode_entry(payload, max_ann)?;
    Ok((object, tensor.size()))
}

/// The skim of a *plain* payload, one canonical term and no guards, read
/// at fixed offsets: object, term count 1, degree `d`, `d` factor ids in
/// ascending order, a nonzero coefficient, guard count 0, value and
/// count, and nothing after. On such a payload the grammar walk makes
/// the same checks and returns the same object and size `d`. `None`
/// sends every other payload, malformed ones included, to the walk,
/// which then returns the result or the error.
fn skim_plain(payload: &[u8], max_ann: usize) -> Option<(AnnId, usize)> {
    let word = |at: usize| {
        let b = payload.get(at..at.checked_add(4)?)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    };
    let object = word(0)?;
    let degree = word(8)?;
    let coeff_at = degree.checked_mul(4)?.checked_add(12)?;
    let plain_len = coeff_at.checked_add(8 + 4 + 8 + 8)?;
    if word(4)? != 1 || object >= max_ann || payload.len() != plain_len {
        return None;
    }
    let coeff = &payload[coeff_at..coeff_at + 8];
    if coeff.iter().all(|&b| b == 0) || word(coeff_at + 8)? != 0 {
        return None;
    }
    let mut prev = 0;
    for id in payload[12..coeff_at].chunks_exact(4) {
        let id = u32::from_le_bytes([id[0], id[1], id[2], id[3]]) as usize;
        if id >= max_ann || id < prev {
            return None;
        }
        prev = id;
    }
    Some((AnnId::from_index(object), degree))
}

/// The object id a frame payload starts with, unchecked: enough to
/// choose between [`decode_entry`] and [`skim_entry`], which both check
/// it.
pub(crate) fn entry_object(payload: &[u8]) -> Option<usize> {
    let id = payload.get(..4)?;
    Some(u32::from_le_bytes([id[0], id[1], id[2], id[3]]) as usize)
}

// ---------------------------------------------------------------------------
// Annotation-store framing (`anns.bin`)
// ---------------------------------------------------------------------------

/// Magic prefix of `anns.bin`.
pub const ANN_MAGIC: &[u8; 8] = b"PROXANN1";
/// Trailing magic shared by every store file.
pub const END_MAGIC: &[u8; 8] = b"PROXEND1";

/// Serialize an [`AnnStore`] (base annotations only — summaries are
/// *outputs* of summarization, a store holds inputs). Layout: magic,
/// `u32` count, per annotation `{name, domain, attrs, concept}`, then an
/// FNV checksum of everything after the magic, then the end magic.
pub fn encode_annstore(store: &AnnStore) -> Result<Vec<u8>, ProxError> {
    let mut enc = Enc::new();
    enc.put_u32(store.len() as u32);
    for (id, ann) in store.iter() {
        if ann.kind.is_summary() {
            return Err(ProxError::unsupported(format!(
                "segment stores hold base provenance; annotation '{}' is a summary",
                store.name(id)
            )));
        }
        enc.put_str(&ann.name);
        enc.put_str(store.domain_name(ann.domain));
        enc.put_u32(ann.attrs.len() as u32);
        for (attr, val) in &ann.attrs {
            enc.put_str(store.attr_name(*attr));
            enc.put_str(store.value_name(*val));
        }
        match ann.concept {
            Some(c) => {
                enc.put_u8(1);
                enc.put_u32(c);
            }
            None => enc.put_u8(0),
        }
    }
    let body = enc.into_bytes();
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(ANN_MAGIC);
    out.extend_from_slice(&body);
    out.extend_from_slice(&fnv64(&body).to_le_bytes());
    out.extend_from_slice(END_MAGIC);
    Ok(out)
}

/// Decode `anns.bin`, verifying magic and checksum. Interning every
/// string in the order it is written makes decoded ids sequential and
/// equal to the encoded ones. Strings are interned straight from the
/// blob, so an annotation costs two allocations: its name, and its
/// attribute list when it has one.
pub fn decode_annstore(bytes: &[u8]) -> Result<AnnStore, ProxError> {
    const CTX: &str = "annotation store (anns.bin)";
    if bytes.len() < 24 || &bytes[..8] != ANN_MAGIC {
        return Err(ProxError::corrupt(CTX, "missing or short header magic"));
    }
    let tail = bytes.len() - 16;
    if &bytes[tail + 8..] != END_MAGIC {
        return Err(ProxError::corrupt(CTX, "missing end magic"));
    }
    let body = &bytes[8..tail];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[tail..tail + 8]);
    let want = u64::from_le_bytes(sum);
    let got = fnv64(body);
    if want != got {
        return Err(ProxError::corrupt(
            CTX,
            format!("checksum mismatch: stored {want:016x}, computed {got:016x}"),
        ));
    }
    let mut dec = Dec::new(body, CTX);
    let n = dec.len_field("annotation")?;
    let mut store = AnnStore::new();
    for _ in 0..n {
        let name = dec.str()?;
        let domain = store.domain(dec.str()?);
        let n_attrs = dec.len_field("attribute")?;
        let mut attrs = Vec::with_capacity(n_attrs.min(64));
        for _ in 0..n_attrs {
            let attr = store.attr(dec.str()?);
            let value = store.value(dec.str()?);
            attrs.push((attr, value));
        }
        let concept = if dec.u8()? == 1 {
            Some(dec.u32()?)
        } else {
            None
        };
        let id = store.add_base(name, domain, attrs);
        if let Some(c) = concept {
            store.set_concept(id, c);
        }
    }
    dec.finish()?;
    Ok(store)
}

// ---------------------------------------------------------------------------
// JSON debug view
// ---------------------------------------------------------------------------

fn poly_json(p: &Polynomial) -> Json {
    Json::Arr(
        p.terms()
            .iter()
            .map(|(m, c)| {
                Json::Arr(vec![
                    Json::Arr(
                        m.factors()
                            .iter()
                            .map(|a| Json::from(a.index() as u64))
                            .collect(),
                    ),
                    Json::from(*c),
                ])
            })
            .collect(),
    )
}

/// Render one decoded entry in the debug JSON shape used by
/// `prox store stat --sample` (annotation names resolved through `anns`).
pub fn entry_to_json(anns: &AnnStore, object: AnnId, t: &Tensor, multiplicity: u64) -> Json {
    let mut j = Json::obj();
    j.set("object", anns.name(object));
    j.set("multiplicity", multiplicity);
    j.set("prov", poly_json(&t.prov));
    if !t.guards.is_empty() {
        j.set(
            "guards",
            Json::Arr(
                t.guards
                    .iter()
                    .map(|g| {
                        let mut gj = Json::obj();
                        gj.set(
                            "lhs",
                            Json::Arr(
                                g.lhs
                                    .iter()
                                    .map(|(p, w)| Json::Arr(vec![poly_json(p), Json::from(*w)]))
                                    .collect(),
                            ),
                        );
                        gj.set("op", g.op.symbol());
                        gj.set("rhs", g.rhs);
                        gj
                    })
                    .collect(),
            ),
        );
    }
    j.set(
        "value",
        Json::Arr(vec![Json::from(t.value.value), Json::from(t.value.count)]),
    );
    j
}

/// Convenience: fingerprint of an encoded entry (content address).
pub fn entry_fingerprint(object: AnnId, t: &Tensor) -> u64 {
    fnv64(&encode_entry(object, t))
}

/// Seed value for incremental checksums (re-exported for writers).
pub const CHECKSUM_SEED: u64 = FNV_OFFSET;

#[cfg(test)]
mod tests {
    use super::*;
    use prox_provenance::AggValue;
    use prox_robust::DetRng;

    const MAX_ANN: usize = 16;

    /// A plain entry: one canonical term of degree 0–4 and no guards.
    fn plain_payload(rng: &mut DetRng) -> Vec<u8> {
        let factors = (0..rng.below(5))
            .map(|_| AnnId::from_index(rng.below(MAX_ANN)))
            .collect();
        let term = (Monomial::from_factors(factors), 1 + rng.below(5) as u64);
        let tensor = Tensor::new(
            Polynomial::from_terms([term]),
            AggValue::new(rng.below(100) as f64, 1),
        );
        encode_entry(AnnId::from_index(rng.below(MAX_ANN)), &tensor)
    }

    /// Hand-made payloads near the plain shape: `(object, terms, guard
    /// count, trailing bytes)`, each term `(factor ids, coefficient)`.
    fn raw_payload(object: u32, terms: &[(&[u32], u64)], guards: u32, trailing: usize) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.put_u32(object);
        enc.put_u32(terms.len() as u32);
        for (factors, coeff) in terms {
            enc.put_u32(factors.len() as u32);
            for &id in *factors {
                enc.put_u32(id);
            }
            enc.put_u64(*coeff);
        }
        enc.put_u32(guards);
        enc.put_f64(2.5);
        enc.put_u64(1);
        let mut out = enc.into_bytes();
        out.extend(std::iter::repeat_n(0, trailing));
        out
    }

    /// Wherever the plain skim answers, the grammar walk gives the same
    /// object and size; wherever it declines, `skim_entry` is the walk,
    /// result or error.
    fn agrees(payload: &[u8], case: &str) -> bool {
        let walked = skim_walk(payload, MAX_ANN);
        let plain = skim_plain(payload, MAX_ANN);
        if let Some(skim) = plain {
            assert_eq!(walked.as_ref().ok(), Some(&skim), "{case}");
        }
        match (skim_entry(payload, MAX_ANN), walked) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{case}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{case}"),
            (a, b) => panic!("{case}: skim {a:?}, walk {b:?}"),
        }
        plain.is_some()
    }

    #[test]
    fn plain_skim_agrees_with_the_walk() {
        let mut rng = DetRng::new(0x5c1a_9e00);
        let mut plain = 0;
        for case in 0..200 {
            let payload = plain_payload(&mut rng);
            assert!(
                agrees(&payload, &format!("round trip {case}")),
                "case {case} is plain"
            );
            plain += 1;
            for cut in 0..payload.len() {
                agrees(&payload[..cut], &format!("case {case} cut at {cut}"));
            }
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                plain += usize::from(agrees(&flipped, &format!("case {case} bit {bit}")));
            }
        }
        assert!(plain > 200, "bit flips in values keep payloads plain");
    }

    #[test]
    fn plain_skim_declines_what_is_not_plain() {
        let cases: [(&str, Vec<u8>, bool); 9] = [
            ("plain", raw_payload(3, &[(&[1, 2, 2], 4)], 0, 0), true),
            ("no factors", raw_payload(3, &[(&[], 1)], 0, 0), true),
            (
                "unsorted factors",
                raw_payload(3, &[(&[2, 1], 4)], 0, 0),
                false,
            ),
            (
                "zero coefficient",
                raw_payload(3, &[(&[1], 0)], 0, 0),
                false,
            ),
            (
                "two terms",
                raw_payload(3, &[(&[1], 1), (&[2], 1)], 0, 0),
                false,
            ),
            ("no terms", raw_payload(3, &[], 0, 0), false),
            ("a guard count", raw_payload(3, &[(&[1], 1)], 1, 0), false),
            (
                "factor out of range",
                raw_payload(3, &[(&[99], 1)], 0, 0),
                false,
            ),
            ("trailing byte", raw_payload(3, &[(&[1], 1)], 0, 1), false),
        ];
        for (case, payload, is_plain) in &cases {
            assert_eq!(agrees(payload, case), *is_plain, "{case}");
        }
        let object_out_of_range = raw_payload(MAX_ANN as u32, &[(&[1], 1)], 0, 0);
        assert!(!agrees(&object_out_of_range, "object out of range"));
        assert!(skim_entry(&object_out_of_range, MAX_ANN).is_err());
    }
}
