//! Domain-specific scenario generators — one per deployment row of the
//! paper's Tables 1 and 2 (plus the Fig. 1 toy example).

use magellan_table::{Dtype, Table, Value};
use rand::rngs::StdRng;
use rand::Rng;

use crate::scenario::{build_scenario, EmScenario, ScenarioConfig, Side};
use crate::words::*;

fn pick<'a>(pool: &'a [&'a str], rng: &mut StdRng) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn str_or_null(v: Option<String>) -> Value {
    v.map_or(Value::Null, Value::Str)
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn float_or_null(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// Person records (the Fig. 1 style example, at scale): name, city, state,
/// age. Side B occasionally renders first names as initials and middle
/// initials appear on one side only.
pub fn persons(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Person {
        first: &'static str,
        middle: char,
        last: &'static str,
        city: &'static str,
        state: &'static str,
        age: i64,
    }
    build_scenario(
        "persons",
        cfg,
        &[
            ("name", Dtype::Str),
            ("city", Dtype::Str),
            ("state", Dtype::Str),
            ("age", Dtype::Int),
        ],
        |rng| {
            let city_idx = rng.gen_range(0..CITIES.len());
            Person {
                first: pick(FIRST_NAMES, rng),
                middle: (b'a' + rng.gen_range(0..26u8)) as char,
                last: pick(LAST_NAMES, rng),
                city: CITIES[city_idx],
                state: STATES[city_idx % STATES.len()],
                age: rng.gen_range(18..90),
            }
        },
        |p, side, rng, dirt| {
            let abbrev = rng.gen_bool(dirt.abbrev_rate);
            let name = match (side, abbrev) {
                (Side::A, false) => format!("{} {}", p.first, p.last),
                (Side::A, true) => format!("{} {}. {}", p.first, p.middle, p.last),
                (Side::B, false) => format!("{} {} {}", p.first, p.middle, p.last),
                (Side::B, true) => {
                    format!("{}. {}", &p.first[..1], p.last)
                }
            };
            vec![
                str_or_null(dirt.corrupt_string(&name, rng)),
                str_or_null(dirt.corrupt_string(p.city, rng)),
                str_or_null(dirt.corrupt_string(p.state, rng)),
                int_or_null(dirt.corrupt_int(p.age, rng)),
            ]
        },
    )
}

/// Product catalog records (the Walmart/Recruit style e-commerce rows of
/// Table 1): title, brand, price. Catalogs order the title tokens
/// differently and disagree on which adjectives to include.
pub fn products(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Product {
        brand: &'static str,
        adj: &'static str,
        kind: &'static str,
        model_no: u32,
        price: f64,
    }
    build_scenario(
        "products",
        cfg,
        &[
            ("title", Dtype::Str),
            ("brand", Dtype::Str),
            ("price", Dtype::Float),
        ],
        |rng| Product {
            brand: pick(BRANDS, rng),
            adj: pick(PRODUCT_ADJ, rng),
            kind: pick(PRODUCT_TYPES, rng),
            model_no: rng.gen_range(100..9999),
            price: (rng.gen_range(10.0..900.0f64) * 100.0).round() / 100.0,
        },
        |p, side, rng, dirt| {
            let title = match side {
                Side::A => format!("{} {} {} {}", p.brand, p.adj, p.kind, p.model_no),
                Side::B => {
                    // Catalog B: model number first, adjective often dropped.
                    if rng.gen_bool(dirt.abbrev_rate) {
                        format!("{} {} {}", p.brand, p.model_no, p.kind)
                    } else {
                        format!("{} {} {} {}", p.brand, p.model_no, p.adj, p.kind)
                    }
                }
            };
            vec![
                str_or_null(dirt.corrupt_string(&title, rng)),
                str_or_null(dirt.corrupt_string(p.brand, rng)),
                float_or_null(dirt.corrupt_float(p.price, rng)),
            ]
        },
    )
}

/// Vehicle records with the heavy-missingness profile of the AmFam
/// "Vehicles" task (Table 2): make, model, year, trim. The caller should
/// pass `DirtModel::heavy()` to reproduce the undecidable-pair problem.
pub fn vehicles(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Vehicle {
        make_idx: usize,
        model: &'static str,
        year: i64,
        trim: &'static str,
    }
    const TRIMS: &[&str] = &["base", "sport", "limited", "touring", "se", "le", "ex"];
    build_scenario(
        "vehicles",
        cfg,
        &[
            ("make", Dtype::Str),
            ("model", Dtype::Str),
            ("year", Dtype::Int),
            ("trim", Dtype::Str),
        ],
        |rng| {
            let make_idx = rng.gen_range(0..VEHICLE_MAKES.len());
            Vehicle {
                make_idx,
                model: pick(VEHICLE_MODELS[make_idx], rng),
                year: rng.gen_range(1998..2019),
                trim: pick(TRIMS, rng),
            }
        },
        |v, _side, rng, dirt| {
            vec![
                str_or_null(dirt.corrupt_string(VEHICLE_MAKES[v.make_idx], rng)),
                str_or_null(dirt.corrupt_string(v.model, rng)),
                int_or_null(dirt.corrupt_int(v.year, rng)),
                str_or_null(dirt.corrupt_string(v.trim, rng)),
            ]
        },
    )
}

/// Street addresses (the AmFam "Addresses" task): number, street, city,
/// state, zip. Source B abbreviates street types systematically.
pub fn addresses(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Address {
        number: i64,
        street: &'static str,
        stype: usize,
        city_idx: usize,
        zip: i64,
    }
    build_scenario(
        "addresses",
        cfg,
        &[
            ("street", Dtype::Str),
            ("city", Dtype::Str),
            ("state", Dtype::Str),
            ("zip", Dtype::Str),
        ],
        |rng| Address {
            number: rng.gen_range(1..9999),
            street: pick(STREETS, rng),
            stype: rng.gen_range(0..STREET_TYPES.len()),
            city_idx: rng.gen_range(0..CITIES.len()),
            zip: rng.gen_range(10000..99999),
        },
        |a, side, rng, dirt| {
            let stype = match side {
                Side::A => STREET_TYPES[a.stype],
                Side::B => STREET_TYPES_ABBR[a.stype],
            };
            let street = format!("{} {} {}", a.number, a.street, stype);
            vec![
                str_or_null(dirt.corrupt_string(&street, rng)),
                str_or_null(dirt.corrupt_string(CITIES[a.city_idx], rng)),
                str_or_null(dirt.corrupt_string(STATES[a.city_idx % STATES.len()], rng)),
                str_or_null(dirt.corrupt_int(a.zip, rng).map(|z| z.to_string())),
            ]
        },
    )
}

/// Vendor master-data records, including the pathological "Brazilian
/// vendors" slice of Table 2: a `brazil_fraction` of base entities carry a
/// *generic placeholder address* shared across unrelated vendors, which
/// makes their pairs undecidable from the data. Set `brazil_fraction = 0.0`
/// for the "Vendors (no Brazil)" rerun.
pub fn vendors(cfg: &ScenarioConfig, brazil_fraction: f64) -> EmScenario {
    #[derive(Clone)]
    struct Vendor {
        stem: &'static str,
        second: &'static str,
        ctype: usize,
        brazilian: bool,
        street_no: i64,
        street: &'static str,
        city_idx: usize,
    }
    const GENERIC_ADDRESSES: &[&str] = &[
        "rua principal s n centro",
        "avenida brasil 1 centro",
        "caixa postal 1",
    ];
    let name = if brazil_fraction > 0.0 {
        "vendors"
    } else {
        "vendors_no_brazil"
    };
    build_scenario(
        name,
        cfg,
        &[
            ("name", Dtype::Str),
            ("address", Dtype::Str),
            ("country", Dtype::Str),
        ],
        move |rng| Vendor {
            stem: pick(COMPANY_STEMS, rng),
            second: pick(COMPANY_STEMS, rng),
            ctype: rng.gen_range(0..COMPANY_TYPES.len()),
            brazilian: rng.gen_bool(brazil_fraction),
            street_no: rng.gen_range(1..999),
            street: pick(STREETS, rng),
            city_idx: rng.gen_range(0..CITIES.len()),
        },
        |v, side, rng, dirt| {
            let ctype = match side {
                Side::A => COMPANY_TYPES[v.ctype],
                Side::B => COMPANY_TYPES_ABBR[v.ctype],
            };
            let name = format!("{} {} {}", v.stem, v.second, ctype);
            let (address, country) = if v.brazilian {
                // The dirty-data signature: unrelated vendors share one of a
                // tiny set of generic addresses — and because the *name* is
                // what varies, we also blank part of it to mimic the
                // incorrect entries the paper describes.
                let generic = GENERIC_ADDRESSES[rng.gen_range(0..GENERIC_ADDRESSES.len())];
                (generic.to_owned(), "brazil")
            } else {
                (
                    format!("{} {} {}", v.street_no, v.street, CITIES[v.city_idx]),
                    "usa",
                )
            };
            let rendered_name = if v.brazilian {
                // Only the generic stem survives for Brazilian entries.
                v.stem.to_owned()
            } else {
                name
            };
            vec![
                str_or_null(dirt.corrupt_string(&rendered_name, rng)),
                str_or_null(dirt.corrupt_string(&address, rng)),
                Value::Str(country.to_owned()),
            ]
        },
    )
}

/// Restaurant listings (the Recruit task of Table 1): name, address, city,
/// phone — phone formatting drifts between sources.
pub fn restaurants(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Restaurant {
        stem: &'static str,
        city_idx: usize,
        street_no: i64,
        street: &'static str,
        phone: (u16, u16, u16),
    }
    build_scenario(
        "restaurants",
        cfg,
        &[
            ("name", Dtype::Str),
            ("address", Dtype::Str),
            ("city", Dtype::Str),
            ("phone", Dtype::Str),
        ],
        |rng| Restaurant {
            stem: pick(RESTAURANT_STEMS, rng),
            city_idx: rng.gen_range(0..CITIES.len()),
            street_no: rng.gen_range(1..999),
            street: pick(STREETS, rng),
            phone: (
                rng.gen_range(200..999),
                rng.gen_range(200..999),
                rng.gen_range(1000..9999),
            ),
        },
        |r, side, rng, dirt| {
            let phone = match side {
                Side::A => format!("({}) {}-{}", r.phone.0, r.phone.1, r.phone.2),
                Side::B => format!("{}-{}-{}", r.phone.0, r.phone.1, r.phone.2),
            };
            let address = format!("{} {} st", r.street_no, r.street);
            vec![
                str_or_null(dirt.corrupt_string(r.stem, rng)),
                str_or_null(dirt.corrupt_string(&address, rng)),
                str_or_null(dirt.corrupt_string(CITIES[r.city_idx], rng)),
                str_or_null(dirt.corrupt_string(&phone, rng)),
            ]
        },
    )
}

/// Cattle-ranch property records (the Appendix B "Land Use" deployment):
/// owner, municipality, state, area. Two government registries render
/// owner names differently and area drifts between survey years.
pub fn ranches(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Ranch {
        owner_first: &'static str,
        owner_last: &'static str,
        muni_idx: usize,
        area_ha: f64,
    }
    build_scenario(
        "ranches",
        cfg,
        &[
            ("owner", Dtype::Str),
            ("municipality", Dtype::Str),
            ("state", Dtype::Str),
            ("area_ha", Dtype::Float),
        ],
        |rng| Ranch {
            owner_first: pick(FIRST_NAMES, rng),
            owner_last: pick(LAST_NAMES, rng),
            muni_idx: rng.gen_range(0..MUNICIPALITIES.len()),
            area_ha: (rng.gen_range(50.0..20_000.0f64) * 10.0).round() / 10.0,
        },
        |r, side, rng, dirt| {
            let owner = match side {
                Side::A => format!("{} {}", r.owner_first, r.owner_last),
                // Registry B writes SURNAME, given-name.
                Side::B => format!("{} {}", r.owner_last, r.owner_first),
            };
            vec![
                str_or_null(dirt.corrupt_string(&owner, rng)),
                str_or_null(dirt.corrupt_string(MUNICIPALITIES[r.muni_idx], rng)),
                str_or_null(dirt.corrupt_string(BR_STATES[r.muni_idx % BR_STATES.len()], rng)),
                float_or_null(dirt.corrupt_float(r.area_ha, rng)),
            ]
        },
    )
}

/// Bibliographic records (the classic EM benchmark shape): title, authors,
/// venue, year.
pub fn citations(cfg: &ScenarioConfig) -> EmScenario {
    #[derive(Clone)]
    struct Paper {
        title_words: Vec<&'static str>,
        authors: Vec<(&'static str, &'static str)>,
        venue: &'static str,
        year: i64,
    }
    build_scenario(
        "citations",
        cfg,
        &[
            ("title", Dtype::Str),
            ("authors", Dtype::Str),
            ("venue", Dtype::Str),
            ("year", Dtype::Int),
        ],
        |rng| {
            let n_words = rng.gen_range(4..8);
            let n_authors = rng.gen_range(1..4);
            Paper {
                title_words: (0..n_words).map(|_| pick(PAPER_WORDS, rng)).collect(),
                authors: (0..n_authors)
                    .map(|_| (pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng)))
                    .collect(),
                venue: pick(VENUES, rng),
                year: rng.gen_range(1995..2019),
            }
        },
        |p, side, rng, dirt| {
            let title = p.title_words.join(" ");
            let authors = match side {
                Side::A => p
                    .authors
                    .iter()
                    .map(|(f, l)| format!("{f} {l}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                Side::B => p
                    .authors
                    .iter()
                    .map(|(f, l)| format!("{}. {l}", &f[..1]))
                    .collect::<Vec<_>>()
                    .join("; "),
            };
            vec![
                str_or_null(dirt.corrupt_string(&title, rng)),
                str_or_null(dirt.corrupt_string(&authors, rng)),
                str_or_null(dirt.corrupt_string(p.venue, rng)),
                int_or_null(dirt.corrupt_int(p.year, rng)),
            ]
        },
    )
}

/// The exact Fig. 1 toy tables from the paper, with their two gold matches.
pub fn figure1_example() -> EmScenario {
    let table_a = Table::from_rows(
        "A",
        &[
            ("id", Dtype::Str),
            ("name", Dtype::Str),
            ("city", Dtype::Str),
            ("state", Dtype::Str),
        ],
        vec![
            vec![
                "a1".into(),
                "Dave Smith".into(),
                "Madison".into(),
                "WI".into(),
            ],
            vec![
                "a2".into(),
                "Joe Wilson".into(),
                "San Jose".into(),
                "CA".into(),
            ],
            vec![
                "a3".into(),
                "Dan Smith".into(),
                "Middleton".into(),
                "WI".into(),
            ],
        ],
    )
    .expect("static rows");
    let table_b = Table::from_rows(
        "B",
        &[
            ("id", Dtype::Str),
            ("name", Dtype::Str),
            ("city", Dtype::Str),
            ("state", Dtype::Str),
        ],
        vec![
            vec![
                "b1".into(),
                "David D. Smith".into(),
                "Madison".into(),
                "WI".into(),
            ],
            vec![
                "b2".into(),
                "Daniel W. Smith".into(),
                "Middleton".into(),
                "WI".into(),
            ],
        ],
    )
    .expect("static rows");
    let gold = [("a1", "b1"), ("a3", "b2")]
        .into_iter()
        .map(|(a, b)| (a.to_owned(), b.to_owned()))
        .collect();
    EmScenario {
        name: "figure1".to_owned(),
        table_a,
        table_b,
        gold,
    }
}

/// All standard generators by name, with paper-profile dirt defaults —
/// used by the experiment harness to sweep Table 2's task list.
pub fn by_name(name: &str, cfg: &ScenarioConfig) -> Option<EmScenario> {
    Some(match name {
        "persons" => persons(cfg),
        "products" => products(cfg),
        "vehicles" => vehicles(cfg),
        "addresses" => addresses(cfg),
        "vendors" => vendors(cfg, 0.25),
        "vendors_no_brazil" => vendors(cfg, 0.0),
        "restaurants" => restaurants(cfg),
        "ranches" => ranches(cfg),
        "citations" => citations(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirt::DirtModel;

    fn cfg(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            size_a: 120,
            size_b: 100,
            n_matches: 40,
            dirt: DirtModel::moderate(),
            seed,
        }
    }

    #[test]
    fn every_domain_generates_valid_scenarios() {
        for name in [
            "persons",
            "products",
            "vehicles",
            "addresses",
            "vendors",
            "vendors_no_brazil",
            "restaurants",
            "ranches",
            "citations",
        ] {
            let s = by_name(name, &cfg(7)).expect("known name");
            assert_eq!(s.table_a.nrows(), 120, "{name}");
            assert_eq!(s.table_b.nrows(), 100, "{name}");
            assert_eq!(s.gold.len(), 40, "{name}");
            // Keys valid and unique.
            let mut catalog = magellan_table::Catalog::new();
            catalog.set_key(&s.table_a, "id").expect("A key valid");
            catalog.set_key(&s.table_b, "id").expect("B key valid");
            // Gold referential integrity.
            let ak = s.table_a.key_index("id").unwrap();
            let bk = s.table_b.key_index("id").unwrap();
            for (a, b) in &s.gold {
                assert!(ak.contains_key(a) && bk.contains_key(b), "{name}");
            }
        }
        assert!(by_name("nope", &cfg(7)).is_none());
    }

    #[test]
    fn clean_persons_matches_are_near_identical() {
        let s = persons(&ScenarioConfig {
            dirt: DirtModel::clean(),
            ..cfg(3)
        });
        let ak = s.table_a.key_index("id").unwrap();
        let bk = s.table_b.key_index("id").unwrap();
        for (a, b) in s.gold.iter().take(10) {
            let ca = s
                .table_a
                .value_by_name(ak[a], "city")
                .unwrap()
                .display_string();
            let cb = s
                .table_b
                .value_by_name(bk[b], "city")
                .unwrap()
                .display_string();
            assert_eq!(ca, cb, "clean matched persons share city");
        }
    }

    #[test]
    fn heavy_vehicles_have_many_nulls() {
        let s = vehicles(&ScenarioConfig {
            dirt: DirtModel::heavy(),
            ..cfg(4)
        });
        let profile = magellan_table::profile::profile_table(&s.table_a);
        let trim_nulls = profile.iter().find(|p| p.name == "trim").unwrap().nulls;
        assert!(
            trim_nulls > 15,
            "heavy dirt should null out many trims, got {trim_nulls}"
        );
    }

    #[test]
    fn brazilian_vendors_share_generic_addresses() {
        let s = vendors(
            &ScenarioConfig {
                size_a: 300,
                size_b: 300,
                n_matches: 100,
                dirt: DirtModel::clean(),
                seed: 5,
            },
            0.4,
        );
        // Generic addresses repeat across unrelated vendors.
        let profile = magellan_table::profile::profile_column(&s.table_a, "address").unwrap();
        let top_count = profile.top.map(|(_, c)| c).unwrap_or(0);
        assert!(
            top_count > 20,
            "expected a heavily repeated generic address, top count {top_count}"
        );
        // And the no-brazil variant doesn't have that pathology.
        let s2 = vendors(
            &ScenarioConfig {
                size_a: 300,
                size_b: 300,
                n_matches: 100,
                dirt: DirtModel::clean(),
                seed: 5,
            },
            0.0,
        );
        let p2 = magellan_table::profile::profile_column(&s2.table_a, "address").unwrap();
        assert!(p2.top.map(|(_, c)| c).unwrap_or(0) < top_count);
    }

    #[test]
    fn figure1_matches_paper() {
        let s = figure1_example();
        assert_eq!(s.table_a.nrows(), 3);
        assert_eq!(s.table_b.nrows(), 2);
        assert!(s.is_match("a1", "b1"));
        assert!(s.is_match("a3", "b2"));
        assert!(!s.is_match("a2", "b1"));
    }

    #[test]
    fn ranches_flip_owner_name_order() {
        let s = ranches(&ScenarioConfig {
            dirt: DirtModel::clean(),
            ..cfg(6)
        });
        let ak = s.table_a.key_index("id").unwrap();
        let bk = s.table_b.key_index("id").unwrap();
        let (a, b) = s.gold.iter().next().unwrap();
        let oa = s
            .table_a
            .value_by_name(ak[a], "owner")
            .unwrap()
            .display_string();
        let ob = s
            .table_b
            .value_by_name(bk[b], "owner")
            .unwrap()
            .display_string();
        let ta: Vec<&str> = oa.split_whitespace().collect();
        let tb: Vec<&str> = ob.split_whitespace().collect();
        assert_eq!(ta[0], tb[1]);
        assert_eq!(ta[1], tb[0]);
    }
}
