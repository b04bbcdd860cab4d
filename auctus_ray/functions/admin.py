"""Administrative-area resolution (the reference's datamart-geo path).

The reference resolves place-name columns against a gazetteer loaded
once per worker (``GeoData.from_local_cache()``,
profiler/profiler.py:193; resolution + 70% threshold + level
disambiguation at lib_profiler/datamart_profiler/profile_types.py:266-275
and spatial.py:333-403) and tags qualifying columns with the ADMIN
semantic type (types.py:30).

Here the gazetteer is a committed public fixture (ISO-3166 countries +
common aliases, plus admin-1 areas for several large countries: US
states, Canadian provinces, Australian states, German Länder, UK
nations). ``AdminResolver`` is the lookup table, built once;
``disambiguate_admin_areas`` mirrors the reference's common-level /
common-parent selection (spatial.py:333-403, MAX_WRONG_LEVEL_ADMIN),
and ``resolve_admin_column`` is the profile-time check over a column's
distinct values.
"""

from __future__ import annotations

T_ADMIN = "http://schema.org/AdministrativeArea"  # reference types.py:30

MAX_WRONG_LEVEL_ADMIN = 0.10  # reference spatial.py:38
ADMIN_RESOLVE_THRESHOLD = 0.7  # profile_types.py:270

# ---- public gazetteer fixture (ISO 3166-1 + aliases) ----
COUNTRIES: list[tuple[str, str]] = [
    ("afghanistan", "AF"), ("albania", "AL"), ("algeria", "DZ"),
    ("andorra", "AD"), ("angola", "AO"), ("argentina", "AR"),
    ("armenia", "AM"), ("australia", "AU"), ("austria", "AT"),
    ("azerbaijan", "AZ"), ("bahamas", "BS"), ("bahrain", "BH"),
    ("bangladesh", "BD"), ("barbados", "BB"), ("belarus", "BY"),
    ("belgium", "BE"), ("belize", "BZ"), ("benin", "BJ"),
    ("bhutan", "BT"), ("bolivia", "BO"), ("bosnia and herzegovina", "BA"),
    ("botswana", "BW"), ("brazil", "BR"), ("brunei", "BN"),
    ("bulgaria", "BG"), ("burkina faso", "BF"), ("burundi", "BI"),
    ("cambodia", "KH"), ("cameroon", "CM"), ("canada", "CA"),
    ("cape verde", "CV"), ("central african republic", "CF"),
    ("chad", "TD"), ("chile", "CL"), ("china", "CN"),
    ("colombia", "CO"), ("comoros", "KM"), ("congo", "CG"),
    ("costa rica", "CR"), ("croatia", "HR"), ("cuba", "CU"),
    ("cyprus", "CY"), ("czech republic", "CZ"), ("czechia", "CZ"),
    ("denmark", "DK"), ("djibouti", "DJ"), ("dominica", "DM"),
    ("dominican republic", "DO"), ("ecuador", "EC"), ("egypt", "EG"),
    ("el salvador", "SV"), ("equatorial guinea", "GQ"), ("eritrea", "ER"),
    ("estonia", "EE"), ("eswatini", "SZ"), ("ethiopia", "ET"),
    ("fiji", "FJ"), ("finland", "FI"), ("france", "FR"),
    ("gabon", "GA"), ("gambia", "GM"), ("georgia", "GE"),
    ("germany", "DE"), ("ghana", "GH"), ("greece", "GR"),
    ("grenada", "GD"), ("guatemala", "GT"), ("guinea", "GN"),
    ("guinea-bissau", "GW"), ("guyana", "GY"), ("haiti", "HT"),
    ("honduras", "HN"), ("hungary", "HU"), ("iceland", "IS"),
    ("india", "IN"), ("indonesia", "ID"), ("iran", "IR"),
    ("iraq", "IQ"), ("ireland", "IE"), ("israel", "IL"),
    ("italy", "IT"), ("ivory coast", "CI"), ("jamaica", "JM"),
    ("japan", "JP"), ("jordan", "JO"), ("kazakhstan", "KZ"),
    ("kenya", "KE"), ("kiribati", "KI"), ("kuwait", "KW"),
    ("kyrgyzstan", "KG"), ("laos", "LA"), ("latvia", "LV"),
    ("lebanon", "LB"), ("lesotho", "LS"), ("liberia", "LR"),
    ("libya", "LY"), ("liechtenstein", "LI"), ("lithuania", "LT"),
    ("luxembourg", "LU"), ("madagascar", "MG"), ("malawi", "MW"),
    ("malaysia", "MY"), ("maldives", "MV"), ("mali", "ML"),
    ("malta", "MT"), ("marshall islands", "MH"), ("mauritania", "MR"),
    ("mauritius", "MU"), ("mexico", "MX"), ("micronesia", "FM"),
    ("moldova", "MD"), ("monaco", "MC"), ("mongolia", "MN"),
    ("montenegro", "ME"), ("morocco", "MA"), ("mozambique", "MZ"),
    ("myanmar", "MM"), ("namibia", "NA"), ("nauru", "NR"),
    ("nepal", "NP"), ("netherlands", "NL"), ("new zealand", "NZ"),
    ("nicaragua", "NI"), ("niger", "NE"), ("nigeria", "NG"),
    ("north korea", "KP"), ("north macedonia", "MK"), ("norway", "NO"),
    ("oman", "OM"), ("pakistan", "PK"), ("palau", "PW"),
    ("panama", "PA"), ("papua new guinea", "PG"), ("paraguay", "PY"),
    ("peru", "PE"), ("philippines", "PH"), ("poland", "PL"),
    ("portugal", "PT"), ("qatar", "QA"), ("romania", "RO"),
    ("russia", "RU"), ("russian federation", "RU"), ("rwanda", "RW"),
    ("samoa", "WS"), ("san marino", "SM"), ("saudi arabia", "SA"),
    ("senegal", "SN"), ("serbia", "RS"), ("seychelles", "SC"),
    ("sierra leone", "SL"), ("singapore", "SG"), ("slovakia", "SK"),
    ("slovenia", "SI"), ("solomon islands", "SB"), ("somalia", "SO"),
    ("south africa", "ZA"), ("south korea", "KR"), ("south sudan", "SS"),
    ("spain", "ES"), ("sri lanka", "LK"), ("sudan", "SD"),
    ("suriname", "SR"), ("sweden", "SE"), ("switzerland", "CH"),
    ("syria", "SY"), ("taiwan", "TW"), ("tajikistan", "TJ"),
    ("tanzania", "TZ"), ("thailand", "TH"), ("timor-leste", "TL"),
    ("togo", "TG"), ("tonga", "TO"), ("trinidad and tobago", "TT"),
    ("tunisia", "TN"), ("turkey", "TR"), ("turkmenistan", "TM"),
    ("tuvalu", "TV"), ("uganda", "UG"), ("ukraine", "UA"),
    ("united arab emirates", "AE"), ("united kingdom", "GB"),
    ("uk", "GB"), ("great britain", "GB"),
    ("united states", "US"), ("united states of america", "US"),
    ("usa", "US"), ("uruguay", "UY"), ("uzbekistan", "UZ"),
    ("vanuatu", "VU"), ("venezuela", "VE"), ("vietnam", "VN"),
    ("yemen", "YE"), ("zambia", "ZM"), ("zimbabwe", "ZW"),
]

# admin-1 areas: (name, code, parent country ISO2)
ADMIN1: list[tuple[str, str, str]] = [
    # US states
    ("alabama", "US-AL", "US"), ("alaska", "US-AK", "US"),
    ("arizona", "US-AZ", "US"), ("arkansas", "US-AR", "US"),
    ("california", "US-CA", "US"), ("colorado", "US-CO", "US"),
    ("connecticut", "US-CT", "US"), ("delaware", "US-DE", "US"),
    ("florida", "US-FL", "US"), ("georgia", "US-GA", "US"),
    ("hawaii", "US-HI", "US"), ("idaho", "US-ID", "US"),
    ("illinois", "US-IL", "US"), ("indiana", "US-IN", "US"),
    ("iowa", "US-IA", "US"), ("kansas", "US-KS", "US"),
    ("kentucky", "US-KY", "US"), ("louisiana", "US-LA", "US"),
    ("maine", "US-ME", "US"), ("maryland", "US-MD", "US"),
    ("massachusetts", "US-MA", "US"), ("michigan", "US-MI", "US"),
    ("minnesota", "US-MN", "US"), ("mississippi", "US-MS", "US"),
    ("missouri", "US-MO", "US"), ("montana", "US-MT", "US"),
    ("nebraska", "US-NE", "US"), ("nevada", "US-NV", "US"),
    ("new hampshire", "US-NH", "US"), ("new jersey", "US-NJ", "US"),
    ("new mexico", "US-NM", "US"), ("new york", "US-NY", "US"),
    ("north carolina", "US-NC", "US"), ("north dakota", "US-ND", "US"),
    ("ohio", "US-OH", "US"), ("oklahoma", "US-OK", "US"),
    ("oregon", "US-OR", "US"), ("pennsylvania", "US-PA", "US"),
    ("rhode island", "US-RI", "US"), ("south carolina", "US-SC", "US"),
    ("south dakota", "US-SD", "US"), ("tennessee", "US-TN", "US"),
    ("texas", "US-TX", "US"), ("utah", "US-UT", "US"),
    ("vermont", "US-VT", "US"), ("virginia", "US-VA", "US"),
    ("washington", "US-WA", "US"), ("west virginia", "US-WV", "US"),
    ("wisconsin", "US-WI", "US"), ("wyoming", "US-WY", "US"),
    # Canadian provinces/territories
    ("alberta", "CA-AB", "CA"), ("british columbia", "CA-BC", "CA"),
    ("manitoba", "CA-MB", "CA"), ("new brunswick", "CA-NB", "CA"),
    ("newfoundland and labrador", "CA-NL", "CA"),
    ("nova scotia", "CA-NS", "CA"), ("ontario", "CA-ON", "CA"),
    ("prince edward island", "CA-PE", "CA"), ("quebec", "CA-QC", "CA"),
    ("saskatchewan", "CA-SK", "CA"), ("yukon", "CA-YT", "CA"),
    ("nunavut", "CA-NU", "CA"), ("northwest territories", "CA-NT", "CA"),
    # Australian states
    ("new south wales", "AU-NSW", "AU"), ("victoria", "AU-VIC", "AU"),
    ("queensland", "AU-QLD", "AU"), ("south australia", "AU-SA", "AU"),
    ("western australia", "AU-WA", "AU"), ("tasmania", "AU-TAS", "AU"),
    ("northern territory", "AU-NT", "AU"),
    ("australian capital territory", "AU-ACT", "AU"),
    # German Länder
    ("baden-wurttemberg", "DE-BW", "DE"), ("bavaria", "DE-BY", "DE"),
    ("bayern", "DE-BY", "DE"), ("berlin", "DE-BE", "DE"),
    ("brandenburg", "DE-BB", "DE"), ("bremen", "DE-HB", "DE"),
    ("hamburg", "DE-HH", "DE"), ("hessen", "DE-HE", "DE"),
    ("hesse", "DE-HE", "DE"), ("niedersachsen", "DE-NI", "DE"),
    ("lower saxony", "DE-NI", "DE"), ("mecklenburg-vorpommern", "DE-MV", "DE"),
    ("nordrhein-westfalen", "DE-NW", "DE"), ("north rhine-westphalia", "DE-NW", "DE"),
    ("rheinland-pfalz", "DE-RP", "DE"), ("saarland", "DE-SL", "DE"),
    ("sachsen", "DE-SN", "DE"), ("saxony", "DE-SN", "DE"),
    ("sachsen-anhalt", "DE-ST", "DE"), ("schleswig-holstein", "DE-SH", "DE"),
    ("thuringen", "DE-TH", "DE"), ("thuringia", "DE-TH", "DE"),
    # UK nations
    ("england", "GB-ENG", "GB"), ("scotland", "GB-SCT", "GB"),
    ("wales", "GB-WLS", "GB"), ("northern ireland", "GB-NIR", "GB"),
]


class Area:
    """One gazetteer entry: level 0 = country, 1 = admin-1."""

    __slots__ = ("name", "level", "code", "parent")

    def __init__(self, name: str, level: int, code: str, parent: str | None):
        self.name = name
        self.level = level
        self.code = code
        self.parent = parent  # parent country ISO2 (None for countries)

    def __repr__(self):  # pragma: no cover
        return f"Area({self.name!r}, level={self.level}, {self.code})"


def _norm(s: str) -> str:
    return " ".join((s or "").strip().lower().split())


class AdminResolver:
    """Name -> candidate areas lookup. Build once (per actor / driver);
    the reference's per-worker GeoData cache (profiler.py:193)."""

    def __init__(self):
        table: dict[str, list[Area]] = {}
        for name, code in COUNTRIES:
            table.setdefault(name, []).append(Area(name, 0, code, None))
        for name, code, parent in ADMIN1:
            table.setdefault(name, []).append(Area(name, 1, code, parent))
        self._table = table

    def resolve(self, name: str) -> list[Area]:
        return self._table.get(_norm(name), [])

    def resolve_names_all(self, names) -> list[list[Area]]:
        return [self.resolve(n) for n in names]


def disambiguate_admin_areas(admin_areas: list[list[Area]]):
    """Reference spatial.py:333-403: pick one (level, common-parent)
    assignment covering >= 90% of the resolved entries; prefer lower
    level (countries over states), then a more specific common parent,
    then higher coverage. Returns (level, [Area per entry]) or None."""
    from collections import Counter

    options: Counter = Counter()
    for candidates in admin_areas:
        per_entry = set()
        for area in candidates:
            if area.parent is not None:
                per_entry.add((area.level, area.parent))
            per_entry.add((area.level, None))
        options.update(per_entry)

    threshold = max(3, (1.0 - MAX_WRONG_LEVEL_ADMIN) * len(admin_areas))
    viable = [(opt, cnt) for opt, cnt in options.items() if cnt >= threshold]
    if not viable:
        return None
    (level, common_parent), _ = min(
        viable,
        key=lambda e: (
            e[0][0],                       # level asc: countries first
            0 if e[0][1] is not None else 1,  # specific parent preferred
            -e[1],                         # count desc
        ),
    )
    result = []
    for candidates in admin_areas:
        for area in candidates:
            if area.level == level and (
                common_parent is None or area.parent == common_parent
            ):
                result.append(area)
                break
    return level, result


def resolve_admin_column(distinct_values: list[str],
                         resolver: AdminResolver | None = None):
    """The profile-time check (profile_types.py:266-275): >= 3 distinct
    values, STRICTLY MORE than 70% resolving to areas (the reference
    uses `>`, profile_types.py:270), and a consistent disambiguation.
    Returns {'level': int, 'areas': [{'name','code','parent'}...]} or None."""
    if len(distinct_values) < 3:
        return None
    resolver = resolver or AdminResolver()
    resolved = [r for r in resolver.resolve_names_all(distinct_values) if r]
    if len(resolved) <= ADMIN_RESOLVE_THRESHOLD * len(distinct_values):
        return None
    dis = disambiguate_admin_areas(resolved)
    if dis is None:
        return None
    level, areas = dis
    return {
        "level": level,
        "areas": [
            {"name": a.name, "code": a.code, "parent": a.parent} for a in areas
        ],
    }

