//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shapes the SimProf workspace uses — no `syn`/`quote` available in the
//! hermetic build, so the item token stream is parsed directly. The
//! generated `write_json` / `from_json` stream straight to and from JSON
//! text:
//!
//! * named-field structs (a JSON object, fields in declaration order; on
//!   decode the first occurrence of a key wins, unknown and repeated keys
//!   are syntax-checked and dropped, and `#[serde(default)]` fills an
//!   absent field; `from_json_in_place` decodes each field in place, with
//!   the same outcome),
//! * tuple structs (newtypes transparent, wider tuples as arrays),
//! * enums with unit / tuple / struct variants (externally tagged exactly
//!   like real serde: `"Variant"`, `{"Variant": value}`,
//!   `{"Variant": {..fields..}}`).
//!
//! Generic type parameters are not supported (the workspace derives none);
//! the macro fails with a clear compile error if it meets one.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `Serialize` (`write_json`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match Item::parse(input) {
        Ok(item) => item.serialize_impl().parse().expect("generated Serialize impl parses"),
        Err(e) => compile_error(&e),
    }
}

/// Derives `Deserialize` (`from_json`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match Item::parse(input) {
        Ok(item) => item.deserialize_impl().parse().expect("generated Deserialize impl parses"),
        Err(e) => compile_error(&e),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("compile_error parses")
}

/// One field with its `#[serde(default)]` flag.
struct Field {
    name: String,
    default: bool,
}

enum Body {
    /// Named-field struct.
    Struct(Vec<Field>),
    /// Tuple struct with N fields.
    Tuple(usize),
    /// Enum: (variant name, data shape).
    Enum(Vec<(String, VariantData)>),
}

enum VariantData {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Item {
    name: String,
    body: Body,
}

impl Item {
    fn parse(input: TokenStream) -> Result<Self, String> {
        let tokens: Vec<TokenTree> = input.into_iter().collect();
        let mut i = 0;
        skip_attrs_and_vis(&tokens, &mut i);
        let kw = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected struct/enum, got {other:?}")),
        };
        i += 1;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected item name, got {other:?}")),
        };
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            return Err(format!("serde shim derive: generic type `{name}` unsupported"));
        }
        let body = match kw.as_str() {
            "struct" => match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Struct(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Tuple(count_top_level_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Tuple(0),
                other => return Err(format!("unsupported struct body: {other:?}")),
            },
            "enum" => match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Enum(parse_variants(g.stream())?)
                }
                other => return Err(format!("expected enum body, got {other:?}")),
            },
            other => return Err(format!("cannot derive for `{other}` items")),
        };
        Ok(Self { name, body })
    }

    fn serialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(fields) => {
                let binds: Vec<String> =
                    fields.iter().map(|f| format!("&self.{}", f.name)).collect();
                write_fields(fields, &binds)
            }
            Body::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
            Body::Tuple(n) => {
                write_elements(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
            }
            Body::Enum(variants) => {
                let mut arms = String::new();
                for (v, data) in variants {
                    let (pattern, inner) = match data {
                        VariantData::Unit => {
                            arms.push_str(&format!(
                                "{name}::{v} => __out.push_str({:?}),\n",
                                format!("\"{v}\"")
                            ));
                            continue;
                        }
                        VariantData::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let inner = if *n == 1 {
                                "::serde::Serialize::write_json(__f0, __out);".to_string()
                            } else {
                                write_elements(&binds)
                            };
                            (format!("{name}::{v}({})", binds.join(", ")), inner)
                        }
                        VariantData::Struct(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            (
                                format!("{name}::{v} {{ {} }}", binds.join(", ")),
                                write_fields(fields, &binds),
                            )
                        }
                    };
                    arms.push_str(&format!(
                        "{pattern} => {{\n__out.push_str({:?});\n{inner}\n__out.push('}}');\n}}\n",
                        format!("{{\"{v}\":")
                    ));
                }
                format!("match self {{\n{arms}}}")
            }
        };
        let inline = if matches!(self.body, Body::Tuple(1)) { "#[inline]\n" } else { "" };
        format!(
            "impl ::serde::Serialize for {name} {{\n\
               {inline}fn write_json(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n\
             }}\n"
        )
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(fields) => read_fields(name, "Self", fields),
            Body::Tuple(1) => "Ok(Self(::serde::Deserialize::from_json(__r)?))".to_string(),
            Body::Tuple(n) => format!("Ok({})", read_elements("Self", *n)),
            Body::Enum(variants) => {
                // Externally tagged: a string names a unit variant; an
                // object with exactly one entry names a data variant.
                let mut unit_arms = String::new();
                let mut data_arms = String::new();
                for (v, data) in variants {
                    let path = format!("{name}::{v}");
                    match data {
                        VariantData::Unit => unit_arms.push_str(&format!("{v:?} => Ok({path}),\n")),
                        VariantData::Tuple(1) => data_arms.push_str(&format!(
                            "{v:?} => {path}(::serde::Deserialize::from_json(__r)?),\n"
                        )),
                        VariantData::Tuple(n) => {
                            data_arms.push_str(&format!("{v:?} => {},\n", read_elements(&path, *n)))
                        }
                        VariantData::Struct(fields) => data_arms.push_str(&format!(
                            "{v:?} => ({})?,\n",
                            read_fields(&path, &path, fields)
                        )),
                    }
                }
                let unknown = format!(
                    "__other => return Err(::serde::DeError::msg(format!(\"{name}: unknown variant `{{__other}}`\"))),"
                );
                let object_arm = if data_arms.is_empty() {
                    String::new()
                } else {
                    format!(
                        "::std::option::Option::Some(b'{{') if __r.begin_object()? => {{\n\
                           let __v = match &*__r.key()? {{\n{data_arms}{unknown}\n}};\n\
                           if __r.object_next()? {{\n\
                             return Err(::serde::DeError::msg(\"{name}: expected one variant, got more entries\"));\n\
                           }}\n\
                           Ok(__v)\n\
                         }}\n"
                    )
                };
                format!(
                    "match __r.peek() {{\n\
                       ::std::option::Option::Some(b'\"') => match &*__r.string()? {{\n{unit_arms}{unknown}\n}},\n\
                       {object_arm}\
                       _ => Err(__r.expected(\"a {name} variant\")),\n\
                     }}"
                )
            }
        };
        // Newtypes are one call deep; let them inline into their callers.
        let inline = if matches!(self.body, Body::Tuple(1)) { "#[inline]\n" } else { "" };
        // A named-field struct decodes into its fields in place, so the
        // vectors it holds keep their allocations.
        let into = match &self.body {
            Body::Struct(fields) => format!(
                "fn from_json_in_place(__r: &mut ::serde::JsonReader<'_>, __place: &mut Self) -> ::std::result::Result<(), ::serde::DeError> {{\n{}\n}}\n",
                read_fields_into(name, fields)
            ),
            _ => String::new(),
        };
        format!(
            "impl ::serde::Deserialize for {name} {{\n\
               {inline}fn from_json(__r: &mut ::serde::JsonReader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
               {into}\
             }}\n"
        )
    }
}

/// Statements writing `fields` (whose values the expressions `binds`
/// reference) as a JSON object.
fn write_fields(fields: &[Field], binds: &[String]) -> String {
    let mut s = String::new();
    for (i, (f, b)) in fields.iter().zip(binds).enumerate() {
        let sep = if i == 0 { "{" } else { "," };
        s.push_str(&format!(
            "__out.push_str({:?});\n::serde::Serialize::write_json({b}, __out);\n",
            format!("{sep}\"{}\":", f.name)
        ));
    }
    s.push_str(if fields.is_empty() { "__out.push_str(\"{}\");" } else { "__out.push('}');" });
    s
}

/// Statements writing the expressions `binds` as a JSON array.
fn write_elements(binds: &[String]) -> String {
    let mut s = String::from("__out.push('[');\n");
    for (i, b) in binds.iter().enumerate() {
        if i > 0 {
            s.push_str("__out.push(',');\n");
        }
        s.push_str(&format!("::serde::Serialize::write_json({b}, __out);\n"));
    }
    s.push_str("__out.push(']');");
    s
}

/// An expression (a `Result`) parsing a JSON object into the named-field
/// constructor `ctor`, with `owner` naming it in errors.
fn read_fields(owner: &str, ctor: &str, fields: &[Field]) -> String {
    let mut s = String::from("{\n");
    for i in 0..fields.len() {
        s.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
    }
    s.push_str(&entry_loop(fields, |i| {
        format!(
            "{i} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(::serde::Deserialize::from_json(__r)?),\n"
        )
    }));
    s.push_str(&format!("Ok({ctor} {{\n"));
    for (i, f) in fields.iter().enumerate() {
        let missing = missing_field(owner, f);
        s.push_str(&format!(
            "{}: match __f{i} {{\n\
                ::std::option::Option::Some(__fv) => __fv,\n\
                ::std::option::Option::None => {missing},\n\
             }},\n",
            f.name
        ));
    }
    s.push_str("})\n}");
    s
}

/// Statements parsing a JSON object into the fields of `__place`
/// (`from_json_in_place`), with the same outcome and errors as
/// [`read_fields`].
fn read_fields_into(owner: &str, fields: &[Field]) -> String {
    let mut s = String::new();
    for i in 0..fields.len() {
        s.push_str(&format!("let mut __s{i} = false;\n"));
    }
    s.push_str(&entry_loop(fields, |i| {
        format!(
            "{i} if !__s{i} => {{\n\
               ::serde::Deserialize::from_json_in_place(__r, &mut __place.{})?;\n\
               __s{i} = true;\n\
             }}\n",
            fields[i].name
        )
    }));
    for (i, f) in fields.iter().enumerate() {
        let missing = if f.default {
            format!("__place.{} = ::std::default::Default::default()", f.name)
        } else {
            missing_field(owner, f)
        };
        s.push_str(&format!("if !__s{i} {{\n{missing};\n}}\n"));
    }
    s.push_str("Ok(())");
    s
}

/// The loop over a JSON object's entries for a named-field struct: each
/// entry's key picks a field index (`n` for an unknown key), and
/// `store(i)` is the match arm that takes field `i`'s value when it has
/// none yet; any other entry is parsed and dropped.
///
/// Each entry first tries the key of the field declared after the last one
/// read, spelled exactly (`"name":`, `JsonReader::key_is`); writers emit
/// fields in declaration order, so that one byte compare usually names the
/// entry. Only when it fails does the entry's key go through the general
/// match, which handles reordered, escaped, unknown and repeated keys.
fn entry_loop(fields: &[Field], store: impl Fn(usize) -> String) -> String {
    let n = fields.len();
    let mut s = String::from(
        "let mut __next = 0usize;\n\
         let mut __more = __r.begin_object()?;\n\
         while __more {\n\
           let __i = match __next {\n",
    );
    for (i, f) in fields.iter().enumerate() {
        s.push_str(&format!("{i} if __r.key_is({:?}) => {i},\n", format!("\"{}\":", f.name)));
    }
    s.push_str("_ => match &*__r.key()? {\n");
    for (i, f) in fields.iter().enumerate() {
        s.push_str(&format!("{:?} => {i},\n", f.name));
    }
    s.push_str(&format!("_ => {n},\n}},\n}};\nmatch __i {{\n"));
    for i in 0..n {
        s.push_str(&store(i));
    }
    s.push_str(
        "_ => __r.skip_value()?,\n\
           }\n\
           __next = __i + 1;\n\
           __more = __r.object_next()?;\n\
         }\n",
    );
    s
}

/// An expression parsing a JSON array of exactly `n` elements into the
/// tuple constructor `ctor` (`?` applied).
fn read_elements(ctor: &str, n: usize) -> String {
    let mut s = String::from("{\nlet mut __more = __r.begin_array()?;\n");
    s.push_str(&format!("let __t = {ctor}("));
    for _ in 0..n {
        s.push_str(&format!("::serde::tuple_element(__r, &mut __more, {n})?, "));
    }
    s.push_str(&format!(");\n::serde::end_tuple(__more, {n})?;\n__t\n}}"));
    s
}

/// The expression a deserializer evaluates for an absent field `f` of
/// `owner`: its default under `#[serde(default)]`, else an early error.
fn missing_field(owner: &str, f: &Field) -> String {
    if f.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("return Err(::serde::DeError::msg(\"{owner}: missing field `{}`\"))", f.name)
    }
}

/// Skips outer attributes (`#[...]`) and a visibility modifier at `*i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + the bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Does an attribute group (`#[serde(...)]` contents) request `default`?
fn attr_is_serde_default(tokens: &[TokenTree], i: usize) -> bool {
    let Some(TokenTree::Group(attr)) = tokens.get(i + 1) else {
        return false;
    };
    let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
    let is_serde = matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
    if !is_serde {
        return false;
    }
    inner.iter().any(|t| match t {
        TokenTree::Group(g) => g
            .stream()
            .into_iter()
            .any(|t| matches!(t, TokenTree::Ident(id) if id.to_string() == "default")),
        _ => false,
    })
}

/// Parses `name: Type, ...` named fields, tracking `#[serde(default)]`.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes (collect the serde(default) flag).
        let mut default = false;
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    default |= attr_is_serde_default(&tokens, i);
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                    {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("expected field name, got {:?}", tokens.get(i)));
        };
        fields.push(Field { name: id.to_string(), default });
        i += 1;
        // Skip `:` and the type up to a top-level comma (angle-bracket aware:
        // commas inside `<...>` belong to the type).
        let mut angle = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Ok(fields)
}

/// Counts top-level (angle-bracket aware) comma-separated fields of a tuple
/// struct / tuple variant.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

/// Parses enum variants.
fn parse_variants(stream: TokenStream) -> Result<Vec<(String, VariantData)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes before the variant.
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("expected variant name, got {:?}", tokens.get(i)));
        };
        let name = id.to_string();
        i += 1;
        let data = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantData::Struct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantData::Tuple(count_top_level_fields(g.stream()))
            }
            _ => VariantData::Unit,
        };
        variants.push((name, data));
        // Skip an optional discriminant and the trailing comma.
        while let Some(t) = tokens.get(i) {
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    Ok(variants)
}
