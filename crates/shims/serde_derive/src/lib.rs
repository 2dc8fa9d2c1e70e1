//! `#[derive(Serialize, Deserialize)]` for the in-tree serde shim.
//!
//! The offline build cannot use `syn`/`quote`, so the input item is parsed
//! directly from the `proc_macro` token stream. Supported shapes — the only
//! ones the workspace derives on:
//!
//! * structs with named fields (including empty `{}`),
//! * enums whose variants are unit, tuple, or struct-like.
//!
//! Three `#[serde(...)]` attributes are understood, spelled and meant as
//! in real serde: field `skip_serializing_if = "path"`, field `default`
//! and container `default` (see the `serde` shim's crate doc). Any other
//! `serde` attribute, or one of these in another position, is a compile
//! error.
//!
//! The generated impls target the shim's value-model traits
//! (`serde::Serialize::to_value` / `serde::Deserialize::from_value`) and use
//! serde's externally-tagged enum representation so the JSON written by the
//! `serde_json` shim looks like real serde output.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::str::FromStr;

/// What the `#[serde(...)]` attributes at one position ask for.
#[derive(Default)]
struct Attrs {
    /// `default`.
    default: bool,
    /// `skip_serializing_if = "path"`.
    skip_if: Option<String>,
}

struct Field {
    name: String,
    attrs: Attrs,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
        /// Container `#[serde(default)]`.
        default: bool,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skip any number of `#[...]` attribute groups starting at `i`,
/// collecting the arguments of the `#[serde(...)]` ones. Panics (a
/// compile error at the derive site) on any argument other than
/// `default` and `skip_serializing_if = "path"`.
fn parse_attrs(tokens: &[TokenTree], mut i: usize) -> (Attrs, usize) {
    let mut attrs = Attrs::default();
    while i + 1 < tokens.len() {
        let (TokenTree::Punct(p), TokenTree::Group(g)) = (&tokens[i], &tokens[i + 1]) else {
            break;
        };
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        i += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        let args: Vec<TokenTree> = match &inner[1..] {
            [TokenTree::Group(args)] if args.delimiter() == Delimiter::Parenthesis => {
                args.stream().into_iter().collect()
            }
            _ => panic!("serde_derive shim: expected `#[serde(...)]`"),
        };
        for arg in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            let text: Vec<String> = arg.iter().map(ToString::to_string).collect();
            let words: Vec<&str> = text.iter().map(String::as_str).collect();
            match words.as_slice() {
                [] => {}
                ["default"] => attrs.default = true,
                ["skip_serializing_if", "=", lit] if lit.len() > 2 && lit.starts_with('"') => {
                    attrs.skip_if = Some(lit[1..lit.len() - 1].to_string());
                }
                _ => panic!(
                    "serde_derive shim: unsupported attribute `serde({})`; supported are \
                     `default` and `skip_serializing_if = \"path\"`",
                    words.join(" ")
                ),
            }
        }
    }
    (attrs, i)
}

/// [`parse_attrs`] for a position that takes no `serde` attribute.
fn skip_attrs(tokens: &[TokenTree], i: usize, position: &str) -> usize {
    let (attrs, i) = parse_attrs(tokens, i);
    assert!(
        !attrs.default && attrs.skip_if.is_none(),
        "serde_derive shim: `serde` attributes are not supported on {position}"
    );
    i
}

/// Skip a visibility modifier (`pub`, `pub(crate)`, …) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Count top-level commas (angle-bracket aware) in a token slice; used to
/// derive tuple-variant arity from its parenthesized field list.
fn top_level_commas(tokens: &[TokenTree]) -> usize {
    let mut depth = 0i32;
    let mut commas = 0;
    for (i, t) in tokens.iter().enumerate() {
        // Tuple fields take no `serde` attribute.
        skip_attrs(tokens, i, "tuple fields");
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => commas += 1,
                _ => {}
            }
        }
    }
    commas
}

/// Parse `name: Type, …` (named fields) from a brace-group body.
fn parse_named_fields(body: &[TokenTree]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let (attrs, next) = parse_attrs(body, i);
        i = next;
        if i >= body.len() {
            break;
        }
        i = skip_vis(body, i);
        let TokenTree::Ident(name) = &body[i] else {
            panic!("serde_derive: expected field name, got {:?}", body[i]);
        };
        fields.push(Field {
            name: name.to_string(),
            attrs,
        });
        i += 1;
        assert!(
            matches!(&body[i], TokenTree::Punct(p) if p.as_char() == ':'),
            "serde_derive: expected `:` after field name"
        );
        i += 1;
        // Skip the type: everything to the next comma at angle depth 0.
        let mut depth = 0i32;
        while i < body.len() {
            if let TokenTree::Punct(p) = &body[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

fn parse_variants(body: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_attrs(body, i, "enum variants");
        if i >= body.len() {
            break;
        }
        let TokenTree::Ident(name) = &body[i] else {
            panic!("serde_derive: expected variant name, got {:?}", body[i]);
        };
        let name = name.to_string();
        i += 1;
        let fields = match body.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                let trailing =
                    matches!(inner.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',');
                Fields::Tuple(top_level_commas(&inner) + usize::from(!trailing))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Named(parse_named_fields(&inner))
            }
            _ => Fields::Unit,
        };
        // Consume the `,` between variants, if present.
        if matches!(body.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (attrs, mut i) = parse_attrs(&tokens, 0);
    assert!(
        attrs.skip_if.is_none(),
        "serde_derive shim: `skip_serializing_if` is a field attribute"
    );
    let default = attrs.default;
    i = skip_vis(&tokens, i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        panic!("serde_derive: expected type name");
    };
    let name = name.to_string();
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported ({name})");
    }
    let (body, tuple_struct) = loop {
        match &tokens[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                break (g.stream().into_iter().collect::<Vec<_>>(), false);
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                break (g.stream().into_iter().collect::<Vec<_>>(), true);
            }
            _ => i += 1,
        }
    };
    assert!(
        !default || (kind == "struct" && !tuple_struct),
        "serde_derive shim: container `default` needs a struct with named fields ({name})"
    );
    match kind.as_str() {
        "struct" if tuple_struct => {
            let trailing = matches!(body.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',');
            Item::Struct {
                name,
                fields: Fields::Tuple(top_level_commas(&body) + usize::from(!trailing)),
                default,
            }
        }
        "struct" => Item::Struct {
            name,
            fields: Fields::Named(parse_named_fields(&body)),
            default,
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(&body),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Build the `Value::Object` of named fields; `access` renders a
/// reference to each field's value.
fn named_to_value(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut pushes = String::new();
    for f in fields {
        let value = access(&f.name);
        let push = format!(
            "obj.push((\"{}\".to_string(), ::serde::Serialize::to_value({value})));",
            f.name
        );
        match &f.attrs.skip_if {
            Some(path) => pushes += &format!("if !{path}({value}) {{ {push} }}"),
            None => pushes += &push,
        }
    }
    format!(
        "{{ #[allow(unused_mut)] let mut obj = ::std::vec::Vec::with_capacity({}); \
         {pushes} ::serde::Value::Object(obj) }}",
        fields.len()
    )
}

/// Field initialisers reading named fields out of `obj`. A `default`
/// field falls back to `Default::default()`; with a container default,
/// every other field falls back to the same field of `__default`.
fn named_from_object(fields: &[Field], container_default: bool) -> String {
    let mut inits = String::new();
    for Field { name, attrs } in fields {
        inits += &if attrs.default {
            format!("{name}: ::serde::optional_field(obj, \"{name}\")?.unwrap_or_default(),")
        } else if container_default {
            format!(
                "{name}: ::serde::optional_field(obj, \"{name}\")?.unwrap_or(__default.{name}),"
            )
        } else {
            format!("{name}: ::serde::field(obj, \"{name}\")?,")
        };
    }
    inits
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let out = match &item {
        Item::Struct { name, fields, .. } => {
            let body = match fields {
                Fields::Named(fields) => named_to_value(fields, |f| format!("&self.{f}")),
                // Newtype structs serialize transparently, wider tuple
                // structs as arrays — serde's representations.
                Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let vals: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Serialize::to_value(&self.{k}),"))
                        .collect();
                    format!("::serde::Value::Array(vec![{}])", vals.join(""))
                }
                Fields::Unit => unreachable!(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => {
                            format!("{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),")
                        }
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(f0) => ::serde::Value::Object(vec![\
                             (\"{vn}\".to_string(), ::serde::Serialize::to_value(f0))]),"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                            let vals: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Serialize::to_value(f{k}),"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Object(vec![\
                                 (\"{vn}\".to_string(), ::serde::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                vals.join("")
                            )
                        }
                        Fields::Named(fields) => {
                            let inner = named_to_value(fields, |f| f.to_string());
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => ::serde::Value::Object(vec![\
                                 (\"{vn}\".to_string(), {inner})]),",
                                binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{ {} }}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    };
    TokenStream::from_str(&out).expect("serde_derive: generated impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let out = match &item {
        Item::Struct {
            name,
            fields,
            default,
        } => match fields {
            Fields::Named(fields) => {
                let inits = named_from_object(fields, *default);
                let container_default = if *default {
                    "let __default: Self = ::std::default::Default::default();"
                } else {
                    ""
                };
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) \
                             -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                             let obj = v.as_object()\
                                 .ok_or_else(|| ::serde::DeError::expected(\"object\", v))?;\n\
                             let _ = obj;\n\
                             {container_default}\n\
                             ::std::result::Result::Ok({name} {{ {inits} }})\n\
                         }}\n\
                     }}"
                )
            }
            Fields::Tuple(1) => format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                     }}\n\
                 }}"
            ),
            Fields::Tuple(n) => {
                let gets: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?,"))
                    .collect();
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) \
                             -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                             let items = v.as_array()\
                                 .ok_or_else(|| ::serde::DeError::expected(\"array\", v))?;\n\
                             if items.len() != {n} {{ return ::std::result::Result::Err(\
                                 ::serde::DeError(format!(\
                                 \"{name} expects {n} fields, got {{}}\", items.len()))); }}\n\
                             ::std::result::Result::Ok({name}({}))\n\
                         }}\n\
                     }}",
                    gets.join("")
                )
            }
            Fields::Unit => unreachable!(),
        },
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),", v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => None,
                        Fields::Tuple(1) => Some(format!(
                            "\"{vn}\" => ::std::result::Result::Ok(\
                             {name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                        )),
                        Fields::Tuple(n) => {
                            let gets: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?,"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let items = inner.as_array().ok_or_else(|| \
                                         ::serde::DeError::expected(\"array\", inner))?;\n\
                                     if items.len() != {n} {{ return ::std::result::Result::Err(\
                                         ::serde::DeError(format!(\
                                         \"variant {vn} expects {n} fields, got {{}}\", items.len()))); }}\n\
                                     ::std::result::Result::Ok({name}::{vn}({}))\n\
                                 }}",
                                gets.join("")
                            ))
                        }
                        Fields::Named(fields) => {
                            let inits = named_from_object(fields, false);
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let obj = inner.as_object().ok_or_else(|| \
                                         ::serde::DeError::expected(\"object\", inner))?;\n\
                                     let _ = obj;\n\
                                     ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n\
                                 }}"
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => ::std::result::Result::Err(::serde::DeError(\
                                     format!(\"unknown {name} variant {{other:?}}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(o) if o.len() == 1 => {{\n\
                                 let (tag, inner) = &o[0];\n\
                                 let _ = inner;\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     other => ::std::result::Result::Err(::serde::DeError(\
                                         format!(\"unknown {name} variant {{other:?}}\"))),\n\
                                 }}\n\
                             }}\n\
                             other => ::std::result::Result::Err(\
                                 ::serde::DeError::expected(\"enum\", other)),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    TokenStream::from_str(&out).expect("serde_derive: generated impl must parse")
}
