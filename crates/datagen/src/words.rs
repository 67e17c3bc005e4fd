//! Word pools for the synthetic entity generators.

/// Common US given names.
pub const FIRST_NAMES: &[&str] = &[
    "james",
    "mary",
    "john",
    "patricia",
    "robert",
    "jennifer",
    "michael",
    "linda",
    "david",
    "elizabeth",
    "william",
    "barbara",
    "richard",
    "susan",
    "joseph",
    "jessica",
    "thomas",
    "sarah",
    "charles",
    "karen",
    "christopher",
    "nancy",
    "daniel",
    "lisa",
    "matthew",
    "betty",
    "anthony",
    "margaret",
    "mark",
    "sandra",
    "donald",
    "ashley",
    "steven",
    "kimberly",
    "paul",
    "emily",
    "andrew",
    "donna",
    "joshua",
    "michelle",
    "kenneth",
    "dorothy",
    "kevin",
    "carol",
    "brian",
    "amanda",
    "george",
    "melissa",
    "edward",
    "deborah",
];

/// Common US family names.
pub const LAST_NAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
    "green",
    "adams",
    "nelson",
    "baker",
    "hall",
    "rivera",
    "campbell",
    "mitchell",
    "carter",
    "roberts",
];

/// US city names.
pub const CITIES: &[&str] = &[
    "madison",
    "milwaukee",
    "chicago",
    "minneapolis",
    "st paul",
    "green bay",
    "rockford",
    "des moines",
    "omaha",
    "kansas city",
    "st louis",
    "springfield",
    "peoria",
    "dubuque",
    "la crosse",
    "eau claire",
    "appleton",
    "oshkosh",
    "racine",
    "kenosha",
    "janesville",
    "waukesha",
    "middleton",
    "sun prairie",
    "fitchburg",
    "verona",
    "stoughton",
    "beloit",
    "san jose",
    "austin",
    "denver",
    "seattle",
    "portland",
    "boston",
    "atlanta",
    "phoenix",
];

/// US state codes.
pub const STATES: &[&str] = &[
    "WI", "IL", "MN", "IA", "MO", "NE", "CA", "TX", "CO", "WA", "OR", "MA", "GA", "AZ",
];

/// Street-name stems.
pub const STREETS: &[&str] = &[
    "main",
    "oak",
    "maple",
    "cedar",
    "elm",
    "washington",
    "lake",
    "hill",
    "park",
    "pine",
    "walnut",
    "spring",
    "north",
    "ridge",
    "church",
    "willow",
    "mill",
    "river",
    "sunset",
    "highland",
    "forest",
    "meadow",
    "dayton",
    "johnson",
    "regent",
    "monroe",
    "state",
];

/// Street-type suffixes (formal / abbreviated pairs share indices with
/// [`STREET_TYPES_ABBR`]).
pub const STREET_TYPES: &[&str] = &[
    "street",
    "avenue",
    "road",
    "boulevard",
    "drive",
    "lane",
    "court",
];

/// Abbreviated street types, index-aligned with [`STREET_TYPES`].
pub const STREET_TYPES_ABBR: &[&str] = &["st", "ave", "rd", "blvd", "dr", "ln", "ct"];

/// Electronics brands for the product domain.
pub const BRANDS: &[&str] = &[
    "sony",
    "samsung",
    "panasonic",
    "toshiba",
    "canon",
    "nikon",
    "logitech",
    "philips",
    "hp",
    "dell",
    "lenovo",
    "asus",
    "acer",
    "lg",
    "jvc",
    "sharp",
    "sandisk",
    "kingston",
    "epson",
    "brother",
];

/// Product category nouns.
pub const PRODUCT_TYPES: &[&str] = &[
    "laptop",
    "monitor",
    "keyboard",
    "mouse",
    "camera",
    "printer",
    "router",
    "headphones",
    "speaker",
    "tablet",
    "charger",
    "projector",
    "webcam",
    "microphone",
    "scanner",
];

/// Marketing adjectives that drift between catalogs.
pub const PRODUCT_ADJ: &[&str] = &[
    "wireless",
    "portable",
    "compact",
    "professional",
    "digital",
    "hd",
    "ultra",
    "premium",
    "gaming",
    "slim",
];

/// Vehicle makes, index-aligned with [`VEHICLE_MODELS`].
pub const VEHICLE_MAKES: &[&str] = &[
    "toyota",
    "honda",
    "ford",
    "chevrolet",
    "nissan",
    "jeep",
    "subaru",
    "hyundai",
    "kia",
    "volkswagen",
];

/// Vehicle model pools per make (index-aligned with [`VEHICLE_MAKES`]).
pub const VEHICLE_MODELS: &[&[&str]] = &[
    &["camry", "corolla", "rav4", "highlander", "prius"],
    &["civic", "accord", "cr-v", "pilot", "fit"],
    &["f-150", "escape", "explorer", "focus", "fusion"],
    &["silverado", "malibu", "equinox", "impala", "cruze"],
    &["altima", "sentra", "rogue", "maxima", "versa"],
    &["wrangler", "cherokee", "compass", "renegade", "gladiator"],
    &["outback", "forester", "impreza", "legacy", "crosstrek"],
    &["elantra", "sonata", "tucson", "santa fe", "accent"],
    &["optima", "sorento", "soul", "sportage", "forte"],
    &["jetta", "passat", "tiguan", "golf", "atlas"],
];

/// Company-name stems for the vendor domain.
pub const COMPANY_STEMS: &[&str] = &[
    "acme",
    "global",
    "united",
    "premier",
    "summit",
    "pioneer",
    "atlas",
    "horizon",
    "cascade",
    "evergreen",
    "keystone",
    "liberty",
    "sterling",
    "vanguard",
    "beacon",
    "harbor",
    "granite",
    "crystal",
    "phoenix",
    "meridian",
    "apex",
    "delta",
    "omega",
    "zenith",
    "northstar",
];

/// Company-type suffixes with their abbreviations, index-aligned.
pub const COMPANY_TYPES: &[&str] = &[
    "corporation",
    "incorporated",
    "limited",
    "company",
    "industries",
];

/// Abbreviated company types, index-aligned with [`COMPANY_TYPES`].
pub const COMPANY_TYPES_ABBR: &[&str] = &["corp", "inc", "ltd", "co", "ind"];

/// Brazilian municipality names for the land-use (ranch) domain.
pub const MUNICIPALITIES: &[&str] = &[
    "altamira",
    "maraba",
    "santarem",
    "itaituba",
    "paragominas",
    "tucurui",
    "parauapebas",
    "redencao",
    "tailandia",
    "xinguara",
    "novo progresso",
    "sao felix do xingu",
    "ourilandia do norte",
    "tucuma",
    "rio maria",
    "agua azul do norte",
    "bannach",
    "cumaru do norte",
    "pau d arco",
    "floresta do araguaia",
];

/// Brazilian states for the ranch domain.
pub const BR_STATES: &[&str] = &["PA", "MT", "RO", "AM", "TO", "MA", "AC"];

/// Restaurant-name stems.
pub const RESTAURANT_STEMS: &[&str] = &[
    "golden dragon",
    "blue plate",
    "corner bistro",
    "harvest table",
    "la cocina",
    "old mill",
    "red rooster",
    "sunset grill",
    "the copper pot",
    "green olive",
    "lucky star",
    "river cafe",
    "two brothers",
    "union house",
    "village inn",
    "wild ginger",
    "brass ring",
    "cedar grove",
    "daily grind",
    "east side diner",
];

/// Research-paper title words for the citation domain.
pub const PAPER_WORDS: &[&str] = &[
    "entity",
    "matching",
    "data",
    "integration",
    "learning",
    "systems",
    "scalable",
    "efficient",
    "query",
    "processing",
    "deep",
    "neural",
    "blocking",
    "record",
    "linkage",
    "crowdsourced",
    "schema",
    "cleaning",
    "extraction",
    "knowledge",
    "graph",
    "distributed",
    "streaming",
    "approximate",
    "joins",
];

/// Venue names for the citation domain.
pub const VENUES: &[&str] = &[
    "sigmod", "vldb", "icde", "kdd", "www", "cikm", "edbt", "icml",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_pools_have_matching_lengths() {
        assert_eq!(STREET_TYPES.len(), STREET_TYPES_ABBR.len());
        assert_eq!(COMPANY_TYPES.len(), COMPANY_TYPES_ABBR.len());
        assert_eq!(VEHICLE_MAKES.len(), VEHICLE_MODELS.len());
    }

    #[test]
    fn pools_are_nonempty_and_lowercase_where_expected() {
        for pool in [FIRST_NAMES, LAST_NAMES, CITIES, BRANDS, COMPANY_STEMS] {
            assert!(pool.len() >= 10);
            for w in pool {
                assert_eq!(*w, w.to_lowercase());
            }
        }
    }
}
