//! Tag vocabulary and tag sets.
//!
//! Meetup organizes interests as *topics* ("tags"): groups declare tags and
//! the paper's methodology (§IV-A, following She et al.) propagates group
//! tags to the group's events and computes user–event interest as the
//! Jaccard similarity of tag sets. This module supplies the vocabulary and
//! an ordered-set representation tuned for fast intersections.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A tag (topic) id: an index into a [`TagVocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Tag(pub u32);

impl Tag {
    /// Raw index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A curated topic list in the spirit of Meetup's category taxonomy.
/// Ordered roughly by popularity so Zipf-distributed draws over indices give
/// popular-topic skew for free.
const BUILTIN_TOPICS: &[&str] = &[
    "social",
    "networking",
    "hiking",
    "technology",
    "fitness",
    "live-music",
    "photography",
    "food",
    "travel",
    "startups",
    "book-club",
    "yoga",
    "running",
    "board-games",
    "wine",
    "career",
    "meditation",
    "dancing",
    "cycling",
    "entrepreneurship",
    "coffee",
    "art",
    "language-exchange",
    "singles",
    "outdoors",
    "happy-hour",
    "web-development",
    "investing",
    "film",
    "writing",
    "craft-beer",
    "volunteering",
    "rock-music",
    "salsa",
    "camping",
    "machine-learning",
    "marketing",
    "self-improvement",
    "jazz",
    "painting",
    "theater",
    "basketball",
    "soccer",
    "software-engineering",
    "small-business",
    "pop-music",
    "karaoke",
    "cooking",
    "veggie-food",
    "data-science",
    "blockchain",
    "real-estate",
    "poker",
    "spirituality",
    "parenting",
    "dogs",
    "comedy",
    "open-mic",
    "gaming",
    "anime",
    "backpacking",
    "kayaking",
    "climbing",
    "surfing",
    "tennis",
    "golf",
    "pilates",
    "crossfit",
    "martial-arts",
    "swing-dance",
    "tango",
    "ballet",
    "hip-hop",
    "edm",
    "classical-music",
    "opera",
    "sculpture",
    "museums",
    "history",
    "philosophy",
    "psychology",
    "astronomy",
    "physics",
    "biotech",
    "chemistry",
    "robotics",
    "drones",
    "3d-printing",
    "arduino",
    "linux",
    "python",
    "rust-lang",
    "javascript",
    "cloud",
    "devops",
    "security",
    "ux-design",
    "graphic-design",
    "fashion",
    "beauty",
    "makeup",
    "knitting",
    "quilting",
    "woodworking",
    "gardening",
    "bird-watching",
    "fishing",
    "sailing",
    "scuba",
    "skiing",
    "snowboarding",
    "skating",
    "motorcycles",
    "classic-cars",
    "aviation",
    "trains",
    "chess",
    "bridge",
    "mahjong",
    "trivia",
    "escape-rooms",
    "improv",
    "stand-up",
    "acting",
    "screenwriting",
    "poetry",
    "fiction",
    "non-fiction",
    "journalism",
    "blogging",
    "podcasting",
    "video-production",
    "animation",
    "street-photography",
    "portrait-photography",
    "landscape-photography",
    "videography",
    "drawing",
    "watercolor",
    "calligraphy",
    "ceramics",
    "jewelry-making",
    "diy",
    "home-brewing",
    "whiskey",
    "cocktails",
    "tea",
    "baking",
    "bbq",
    "sushi",
    "ramen",
    "vegan",
    "paleo",
    "nutrition",
    "weight-loss",
    "mental-health",
    "mindfulness",
    "life-coaching",
    "public-speaking",
    "toastmasters",
    "leadership",
    "product-management",
    "agile",
    "consulting",
    "freelancing",
    "remote-work",
    "digital-nomads",
    "crypto",
    "stocks",
    "options-trading",
    "financial-independence",
    "frugal-living",
    "minimalism",
    "tiny-houses",
    "sustainability",
    "climate",
    "recycling",
    "urban-farming",
    "beekeeping",
    "astronomy-club",
    "stargazing",
    "genealogy",
    "local-history",
    "walking-tours",
    "pub-crawl",
    "brunch",
    "dining-out",
    "supper-club",
    "picnics",
    "beach",
    "road-trips",
    "international-travel",
    "solo-travel",
    "expats",
    "newcomers",
    "over-40",
    "over-50",
    "20s-30s",
    "lgbtq",
    "women-in-tech",
    "moms",
    "dads",
    "pet-lovers",
    "cat-lovers",
];

/// An interned, indexable topic vocabulary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TagVocabulary {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

impl TagVocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The builtin ~200-topic vocabulary, ordered by (assumed) popularity.
    pub fn builtin() -> Self {
        let mut v = Self::new();
        for name in BUILTIN_TOPICS {
            v.intern(name);
        }
        v
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns a name, returning its (possibly pre-existing) tag.
    pub fn intern(&mut self, name: &str) -> Tag {
        if let Some(&i) = self.index.get(name) {
            return Tag(i);
        }
        let i = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        Tag(i)
    }

    /// Looks up a name without interning.
    pub fn get(&self, name: &str) -> Option<Tag> {
        self.index.get(name).map(|&i| Tag(i))
    }

    /// The name of a tag, if in range.
    pub fn name(&self, tag: Tag) -> Option<&str> {
        self.names.get(tag.0 as usize).map(String::as_str)
    }

    /// Rebuilds the name→tag index (needed after deserialization, since the
    /// index is not serialized).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
    }
}

/// A sorted, deduplicated set of tags. Sortedness makes intersection /
/// union linear merges, which is what Jaccard computations iterate.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TagSet {
    tags: Vec<Tag>,
}

impl TagSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, tag: Tag) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Sorted slice view.
    pub fn as_slice(&self) -> &[Tag] {
        &self.tags
    }

    /// Inserts a tag, keeping order.
    pub fn insert(&mut self, tag: Tag) {
        if let Err(pos) = self.tags.binary_search(&tag) {
            self.tags.insert(pos, tag);
        }
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &TagSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.tags.len() && j < other.tags.len() {
            match self.tags[i].cmp(&other.tags[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Union with `other` as a new set.
    pub fn union(&self, other: &TagSet) -> TagSet {
        TagSet::from_iter(self.tags.iter().chain(other.tags.iter()).copied())
    }

    /// Iterates tags in order.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.tags.iter().copied()
    }
}

impl FromIterator<Tag> for TagSet {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        let mut tags: Vec<Tag> = iter.into_iter().collect();
        tags.sort_unstable();
        tags.dedup();
        Self { tags }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_iter(ids.iter().map(|&i| Tag(i)))
    }

    #[test]
    fn builtin_vocabulary_is_deduplicated() {
        let v = TagVocabulary::builtin();
        assert!(
            v.len() >= 180,
            "expected a rich vocabulary, got {}",
            v.len()
        );
        // Interning an existing name returns the same tag.
        let mut v2 = TagVocabulary::builtin();
        let before = v2.len();
        let t = v2.intern("hiking");
        assert_eq!(v2.len(), before);
        assert_eq!(v2.name(t), Some("hiking"));
        assert_eq!(v2.get("hiking"), Some(t));
        assert_eq!(v2.get("no-such-topic"), None);
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut v = TagVocabulary::new();
        assert_eq!(v.intern("a"), Tag(0));
        assert_eq!(v.intern("b"), Tag(1));
        assert_eq!(v.intern("a"), Tag(0));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn rebuild_index_after_deserialization() {
        let v = TagVocabulary::builtin();
        let json = serde_json::to_string(&v).unwrap();
        let mut back: TagVocabulary = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("hiking"), None, "index is skipped by serde");
        back.rebuild_index();
        assert_eq!(back.get("hiking"), v.get("hiking"));
        assert_eq!(back.len(), v.len());
    }

    #[test]
    fn tagset_sorts_and_dedups() {
        let s = ts(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[Tag(1), Tag(3), Tag(5)]);
        assert!(s.contains(Tag(3)));
        assert!(!s.contains(Tag(2)));
    }

    #[test]
    fn insert_keeps_order_and_uniqueness() {
        let mut s = ts(&[1, 5]);
        s.insert(Tag(3));
        s.insert(Tag(3));
        assert_eq!(s.as_slice(), &[Tag(1), Tag(3), Tag(5)]);
    }

    #[test]
    fn set_operations() {
        let a = ts(&[1, 2, 3, 4]);
        let b = ts(&[3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union(&b).as_slice().len(), 5);
        let empty = TagSet::new();
        assert_eq!(a.intersection_size(&empty), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = ts(&[2, 7]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, "[2,7]");
        let back: TagSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
