//! Deterministic synthetic MovieLens-shaped store generation.
//!
//! `prox store build` and the `store` bench experiment both build their
//! stores here: a DetRng-seeded population of users and movies (with
//! the MovieLens 1M attribute vocabulary), and a logical rating stream
//! whose *unique* frame count and *logical* expression count are chosen
//! independently — ten million logical ratings typically share on the
//! order of a hundred thousand distinct `(movie, user, rating)` frames,
//! which is exactly the sharing the content-addressed store exploits.
//!
//! A build's heap traffic follows the annotation table, not the frames:
//! every domain, attribute and value is interned once, the rating stream
//! draws annotation ids the table's construction returned, and each user
//! has one tensor whose value a frame overwrites (DESIGN §14.9).

use std::fmt::Write;
use std::path::Path;

use prox_provenance::{AggKind, AggValue, AnnId, AnnStore, Polynomial, Tensor};
use prox_robust::{DetRng, ProxError};

use crate::builder::{StoreBuilder, StoreSummary};

/// Shape of a synthetic store.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    pub users: u32,
    pub movies: u32,
    /// Distinct frames to draw (collisions dedup below this).
    pub unique_frames: u64,
    /// Logical expressions to spread across those frames.
    pub logical: u64,
    pub seed: u64,
}

impl SynthSpec {
    /// The bench-proof shape: MovieLens 1M population, ten million
    /// logical ratings over ~120k distinct frames.
    pub fn full(seed: u64) -> SynthSpec {
        SynthSpec {
            users: 6040,
            movies: 3952,
            unique_frames: 120_000,
            logical: 10_000_000,
            seed,
        }
    }

    /// A seconds-scale shape for tests and `--quick` runs.
    pub fn quick(seed: u64) -> SynthSpec {
        SynthSpec {
            users: 400,
            movies: 200,
            unique_frames: 4_000,
            logical: 200_000,
            seed,
        }
    }
}

const GENDERS: [&str; 2] = ["F", "M"];
const AGE_BANDS: [&str; 7] = ["1", "18", "25", "35", "45", "50", "56"];
const GENRES: [&str; 18] = [
    "Action",
    "Adventure",
    "Animation",
    "Children",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "FilmNoir",
    "Horror",
    "Musical",
    "Mystery",
    "Romance",
    "SciFi",
    "Thriller",
    "War",
    "Western",
];
const DECADES: [&str; 8] = [
    "1920s", "1930s", "1940s", "1950s", "1960s", "1970s", "1980s", "1990s",
];

/// Occupations are `occ0` .. `occ20`.
const OCCUPATIONS: usize = 21;

/// The annotation population and the ids a rating stream draws from.
pub struct SynthAnns {
    pub anns: AnnStore,
    /// `users[u]` is user `u`'s annotation `u{u}`.
    pub users: Vec<AnnId>,
    /// `movies[m]` is movie `m`'s annotation `m{m}`.
    pub movies: Vec<AnnId>,
}

/// Build the annotation population: one base annotation per user and
/// per movie, attributed so `SharedAttribute` merge rules have
/// something to group on. Attributes are interned in the order a user's
/// and then a movie's list names them, which fixes the order
/// `anns.bin` writes each annotation's attributes in.
pub fn synth_annstore(spec: &SynthSpec) -> SynthAnns {
    let mut rng = DetRng::new(spec.seed ^ ANN_SEED_MIX);
    let mut anns = AnnStore::new();
    let user = anns.domain("user");
    let movie = anns.domain("movie");
    let gender = anns.attr("gender");
    let age = anns.attr("age");
    let occupation = anns.attr("occupation");
    let genre = anns.attr("genre");
    let decade = anns.attr("decade");
    let genders = GENDERS.map(|v| anns.value(v));
    let age_bands = AGE_BANDS.map(|v| anns.value(v));
    let occupations: Vec<_> = (0..OCCUPATIONS)
        .map(|o| anns.value(&format!("occ{o}")))
        .collect();
    let genres = GENRES.map(|v| anns.value(v));
    let decades = DECADES.map(|v| anns.value(v));

    let mut name = String::new();
    let mut users = Vec::with_capacity(spec.users as usize);
    for u in 0..spec.users {
        let attrs = vec![
            (gender, genders[rng.below(genders.len())]),
            (age, age_bands[rng.below(age_bands.len())]),
            (occupation, occupations[rng.below(OCCUPATIONS)]),
        ];
        name.clear();
        let _ = write!(name, "u{u}");
        users.push(anns.add_base(&name, user, attrs));
    }
    let mut movies = Vec::with_capacity(spec.movies as usize);
    for m in 0..spec.movies {
        let attrs = vec![
            (genre, genres[rng.below(genres.len())]),
            (decade, decades[rng.below(decades.len())]),
        ];
        name.clear();
        let _ = write!(name, "m{m}");
        movies.push(anns.add_base(&name, movie, attrs));
    }
    SynthAnns {
        anns,
        users,
        movies,
    }
}

/// Mixed into the annotation-population RNG so it is decorrelated from
/// the rating stream drawn from the same user seed.
const ANN_SEED_MIX: u64 = 0x5707_e5ee_d000_0001;

/// What `build_synthetic` produced.
#[derive(Clone, Debug)]
pub struct SynthReport {
    pub summary: StoreSummary,
    pub users: u32,
    pub movies: u32,
    pub requested_unique: u64,
    pub requested_logical: u64,
    pub seed: u64,
}

/// Build a synthetic store at `dir`. Multiplicities are spread evenly
/// (the first `logical % unique` frames get one extra), so the logical
/// total is hit exactly and the layout is a pure function of the spec.
pub fn build_synthetic(dir: &Path, spec: &SynthSpec) -> Result<SynthReport, ProxError> {
    if spec.users == 0 || spec.movies == 0 || spec.unique_frames == 0 {
        return Err(ProxError::config(
            "synthetic store needs users, movies, and unique_frames all > 0",
        ));
    }
    if spec.logical < spec.unique_frames {
        return Err(ProxError::config(format!(
            "logical total {} below unique frame count {}",
            spec.logical, spec.unique_frames
        )));
    }
    let SynthAnns {
        anns,
        users,
        movies,
    } = synth_annstore(spec);
    let mut builder = StoreBuilder::create(dir, &anns, AggKind::Max)?;
    // `anns.bin` is written; the frames need only the ids.
    drop(anns);
    // One tensor per user; each frame overwrites its value.
    let mut tensors: Vec<Tensor> = users
        .into_iter()
        .map(|u| Tensor::new(Polynomial::var(u), AggValue::single(0.0)))
        .collect();
    let mut rng = DetRng::new(spec.seed);
    let base = spec.logical / spec.unique_frames;
    let extra = spec.logical % spec.unique_frames;
    for i in 0..spec.unique_frames {
        let user = rng.below(tensors.len());
        let movie = movies[rng.below(movies.len())];
        let tensor = &mut tensors[user];
        tensor.value = AggValue::single(0.5 * (1 + rng.below(10)) as f64);
        let n = base + u64::from(i < extra);
        builder.append(movie, tensor, n)?;
    }
    let summary = builder.finish()?;
    Ok(SynthReport {
        summary,
        users: spec.users,
        movies: spec.movies,
        requested_unique: spec.unique_frames,
        requested_logical: spec.logical,
        seed: spec.seed,
    })
}
