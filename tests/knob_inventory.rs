//! docs/DESIGN.md's knob inventory cannot drift from the code: each config
//! struct's heading counts its fields, and its table has one row per field,
//! in declaration order.

use geckoftl::flash_sim::Geometry;
use geckoftl::geckoftl_core::ftl::FtlConfig;
use geckoftl::geckoftl_core::gecko::GeckoConfig;

const DESIGN_MD: &str = include_str!("../docs/DESIGN.md");

/// The field names of a struct, taken by destructuring `$value` without
/// `..`: a field added to the struct and not listed here fails to compile.
macro_rules! field_names {
    ($value:expr, $ty:ident { $($field:ident),* $(,)? }) => {{
        let $ty { $($field: _),* } = $value;
        [$(stringify!($field)),*]
    }};
}

/// The field count in the `### `ty` (N fields)` heading and the field named
/// first in each row of the table below it.
fn inventory(ty: &str) -> (usize, Vec<&'static str>) {
    let heading = format!("### `{ty}` (");
    let at = DESIGN_MD
        .find(&heading)
        .unwrap_or_else(|| panic!("DESIGN.md has no {heading:?} heading"));
    let (count, section) = DESIGN_MD[at + heading.len()..]
        .split_once(" fields)")
        .expect("the heading ends in ` fields)`");
    let rows = section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // the header row and the separator
        .map(|row| {
            row.split('`')
                .nth(1)
                .unwrap_or_else(|| panic!("row without a `field` name: {row}"))
        })
        .collect();
    (count.parse().expect("a field count"), rows)
}

fn assert_listed(ty: &str, fields: &[&str]) {
    let (count, rows) = inventory(ty);
    assert_eq!(count, fields.len(), "DESIGN.md's `{ty}` field count");
    assert_eq!(rows, fields, "DESIGN.md's `{ty}` table rows");
}

#[test]
fn ftl_config_fields_match_the_inventory() {
    let fields = field_names!(
        FtlConfig::geckoftl(&Geometry::tiny()),
        FtlConfig {
            cache_entries,
            gc_policy,
            recovery,
            qos_headroom_blocks,
        }
    );
    assert_listed("FtlConfig", &fields);
}

#[test]
fn gecko_config_fields_match_the_inventory() {
    let fields = field_names!(
        GeckoConfig::default(),
        GeckoConfig {
            size_ratio,
            partitions,
            multiway_merge,
            page_header_bytes,
            bloom_bits_per_key,
            sync_merge,
            merge_step_pages,
            shards,
        }
    );
    assert_listed("GeckoConfig", &fields);
}
